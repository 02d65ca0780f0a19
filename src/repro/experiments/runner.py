"""The experiment runner: the registry, the one execution path, the CLI.

Every experiment is one :class:`~repro.experiments.common.Experiment`
record (``units → measure → finish``), and the full sweep (E1-E18 plus
the A1-A4 ablations) is embarrassingly parallel at the grain of the
unit: each builds its own :class:`LegionSystem` from a seed and shares
nothing.  ``run_many`` submits every unit and merges the partials in
unit order in this process, so ``--jobs N`` is purely a wall-clock
optimisation: the *printed output* is byte-identical at any ``N``.

``python -m repro.experiments`` dispatches here; see :func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    ablation_caching,
    ablation_propagation,
    ablation_ttl_locality,
    e1_binding_path,
    e2_agent_load,
    e3_combining_tree,
    e4_class_cloning,
    e5_lifecycle,
    e6_stale_bindings,
    e7_replication,
    e8_inheritance,
    e9_scaling,
    e10_bootstrap,
    e11_autonomy,
    e12_loids,
    e13_availability,
    e14_autoscale,
    e15_overload,
    e16_georeplication,
    e17_governor,
    e18_scenarios,
)
from repro.experiments.common import Experiment, whole

#: The registry: id -> the record ``run_many`` interprets.  A sweep whose
#: points are independent seeded universes lists them as its units; an
#: experiment that stays one ``run(quick, seed, ...)`` is ``whole`` -- one
#: unit -- with the flags its signature takes named here.
RUNNERS: Dict[str, Experiment] = {
    "e1": whole(e1_binding_path.run, "trace"),
    "e2": whole(e2_agent_load.run),
    "e3": whole(e3_combining_tree.run, "trace"),
    "e4": whole(e4_class_cloning.run),
    "e5": whole(e5_lifecycle.run),
    "e6": whole(e6_stale_bindings.run),
    "e7": whole(e7_replication.run),
    "e8": whole(e8_inheritance.run),
    "e9": e9_scaling.EXPERIMENT,
    "e10": whole(e10_bootstrap.run),
    "e11": whole(e11_autonomy.run),
    "e12": whole(e12_loids.run),
    "e13": e13_availability.EXPERIMENT,
    "e14": whole(e14_autoscale.run, "autoscale", "report"),
    "e15": e15_overload.EXPERIMENT,
    "e16": e16_georeplication.EXPERIMENT,
    "e17": e17_governor.EXPERIMENT,
    "e18": e18_scenarios.EXPERIMENT,
    "a1": whole(ablation_propagation.run),
    "a2": whole(ablation_caching.run),
    "a3": whole(ablation_ttl_locality.run_ttl),
    "a4": whole(ablation_ttl_locality.run_locality),
}

#: The subsystem flags, declared once as (keyword, argparse options,
#: help).  The CLI derives its ``--keyword`` options from this table and
#: :func:`run_many` validates its ``**flags`` against it.  *Which*
#: experiment takes which flag is not repeated here: a flag reaches
#: exactly the experiments whose record declares its keyword.
FLAGS = (
    (
        "trace",
        {"nargs": "?", "const": "traces", "metavar": "DIR"},
        "record causal traces: trace-aware experiments audit their "
        "span trees and write Chrome trace_event JSON under DIR "
        "(default: traces/)",
    ),
    (
        "faults",
        {"type": float, "metavar": "RATE"},
        "chaos intensity (fault events per 1000 simulated time units) "
        "for fault-aware experiments: e13 then sweeps [0, RATE] "
        "instead of its default levels",
    ),
    (
        "report",
        {"nargs": "?", "const": "reports", "metavar": "DIR"},
        "write machine-readable result artifacts (availability/FaultLog "
        "JSON) under DIR (default: reports/) for experiments that "
        "support them",
    ),
    (
        "autoscale",
        {"type": float, "metavar": "MULT"},
        "top offered-load multiplier for autoscale-aware experiments: "
        "e14 then sweeps powers of two up to MULT instead of its "
        "default 8x; e18 adds an autoscale arm at MULT x offered load",
    ),
    (
        "overload",
        {"type": float, "metavar": "MULT"},
        "top offered-load multiplier for overload-aware experiments: "
        "e15 then sweeps offered load up to MULT x capacity instead "
        "of its default 10x",
    ),
    (
        "replicas",
        {"type": int, "metavar": "N"},
        "top replica count for replication-aware experiments: e16 "
        "then sweeps replica groups up to N members instead of its "
        "default 3 (one per jurisdiction)",
    ),
    (
        "governor",
        {"type": float, "metavar": "MULT"},
        "storm offered-load multiplier for governor-aware experiments: "
        "e17 then drives its storm phase at MULT x capacity instead of "
        "its default 8x",
    ),
    (
        "mega",
        {"type": int, "metavar": "N"},
        "columnar mega-scale population for mega-aware experiments: "
        "e9 appends a frame-at-once size ladder up to N objects, e18 "
        "replays its scenarios over N columnar callers instead of its "
        "default 10^6 (requires the numpy 'mega' extra)",
    ),
)
FLAG_NAMES = tuple(keyword for keyword, _options, _help in FLAGS)


@dataclass
class RunOutcome:
    """One experiment run as the CLI and the performance ledger read it:
    the rendered report, the verdict, the failed checks' names
    (``("crashed",)`` for a crash), and ``elapsed``: the sum of the unit
    walls, each timed in the process that ran it, plus ``finish`` -- the
    same at any ``jobs``, never time queued behind other experiments.
    """

    name: str
    experiment: str
    passed: bool
    report: str
    elapsed: float
    seed: int
    failed: Tuple[str, ...] = ()


def _timed(hook, *args):
    """``(hook(*args), its wall time)``, taken in the process that runs it."""
    started = time.perf_counter()
    value = hook(*args)
    return value, time.perf_counter() - started


def _crashed(name: str, seed: int, elapsed: float) -> RunOutcome:
    """Call from an ``except``: a task that raised is a FAIL, not an abort."""
    report = f"== {name}: CRASHED ==\n{traceback.format_exc().rstrip()}"
    return RunOutcome(name, name.upper(), False, report, elapsed, seed, ("crashed",))


def _queue(submit, name: str, quick: bool, seed: int, flags: dict):
    """Submit every unit of one task; returns what :func:`_merge` reads."""
    try:
        experiment = RUNNERS[name]
        own = experiment.bind(flags)
        reads = [
            submit(_timed, experiment.measure, unit, quick, seed, own)
            for unit in experiment.units(quick, own)
        ]
    except Exception:  # noqa: BLE001 - a crashed experiment is a FAIL, not an abort
        return _crashed(name, seed, 0.0)
    return experiment, own, reads


def _merge(name: str, quick: bool, seed: int, queued) -> RunOutcome:
    """Read one task's partials back in unit order and finish it."""
    if isinstance(queued, RunOutcome):
        return queued
    experiment, own, reads = queued
    elapsed = 0.0
    try:
        partials = []
        for read in reads:
            partial, wall = read()
            partials.append(partial)
            elapsed += wall
        result, wall = _timed(experiment.finish, partials, quick, seed, own)
        report = result.render()
    except Exception:  # noqa: BLE001 - a crashed experiment is a FAIL, not an abort
        return _crashed(name, seed, elapsed)
    failed = tuple(check.name for check in result.checks if not check.passed)
    return RunOutcome(
        name, result.experiment, not failed, report, elapsed + wall, seed, failed
    )


def run_many(
    names: Sequence[str],
    quick: bool = True,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    **flags,
) -> List[RunOutcome]:
    """Run ``names`` x ``seeds``, ``jobs`` at a time; outcomes in input order.

    ``flags`` are the :data:`FLAGS` keywords; an unknown one is a caller
    bug and raises ``TypeError`` before anything runs.  Each experiment
    receives exactly the flags its record declares (``None`` when
    unset) and runs the same with or without the rest.

    There is one path: every unit of every task is submitted, then each
    task's partials are read back in unit order and merged by its
    ``finish`` in this process.  ``jobs > 1`` submits to the one worker
    pool, so all units are queued on it before any is read and no worker
    ever opens a pool of its own.  ``jobs=1`` defers each call until it
    is read -- experiment after experiment, each merged before the next
    starts; no future, no pool, no fork -- and is the reference whose
    output the pool reproduces byte-for-byte.  Traced and fault-injected
    runs keep that contract: span ids, timestamps, and chaos schedules
    are functions of the per-unit kernel's deterministic seed, so
    reports and exported artifacts are identical at any ``jobs``.
    """
    for keyword in flags:
        if keyword not in FLAG_NAMES:
            raise TypeError(
                f"unknown flag {keyword!r}; valid flags: {', '.join(FLAG_NAMES)}"
            )
    tasks = [(name, quick, seed) for seed in seeds for name in names]
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext()) as pool:
        # ``submit`` returns the call that reads the result back: a pool
        # future's ``result``, or (no pool) the deferred call itself.
        submit = (
            (lambda *call: pool.submit(*call).result) if pool else functools.partial
        )
        queued = [_queue(submit, *task, flags) for task in tasks]
        return [_merge(*task, entry) for task, entry in zip(tasks, queued, strict=True)]


def render_summary(outcomes: Sequence[RunOutcome], multi_seed: bool) -> str:
    """The trailing PASS/FAIL table plus the one-line verdict."""
    lines = ["=" * 60]
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        tag = f"({o.name}, seed {o.seed})" if multi_seed else f"({o.name})"
        lines.append(f"  {status}  {o.experiment:<4} {tag}  {o.elapsed:6.1f}s")
        lines.extend(f"        - {name}" for name in o.failed)
    lines.append("=" * 60)
    all_passed = all(o.passed for o in outcomes)
    lines.append("all claims hold" if all_passed else "SOME CLAIMS FAILED")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the Legion paper's claims (E1-E18, A1-A4).",
    )
    parser.add_argument("names", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--full", action="store_true", help="full-size sweeps")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick-size sweeps (the default; explicit for scripts)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        metavar="SEED",
        help="run the sweep once per seed (overrides --seed)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run on N worker processes shared by the independent units "
            "of every experiment; reports are byte-identical at any N "
            "(default 1)"
        ),
    )
    for keyword, options, help_text in FLAGS:
        parser.add_argument(f"--{keyword}", default=None, help=help_text, **options)
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the scenario catalog (the workloads e18 sweeps)",
    )
    args = parser.parse_args(argv)

    if args.full and args.quick:
        parser.error("--full and --quick are mutually exclusive")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if args.list:
        for name in RUNNERS:
            print(name)
        return 0

    if args.list_scenarios:
        from repro.scenarios import catalog

        specs = catalog()
        width = max(len(name) for name in specs)
        for name, spec in specs.items():
            print(f"{name:<{width}}  {spec.description}")
        return 0

    names = [n.lower() for n in (args.names or list(RUNNERS))]
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    seeds = args.seeds if args.seeds else [args.seed]
    outcomes = run_many(
        names,
        quick=not args.full,
        seeds=seeds,
        jobs=args.jobs,
        **{keyword: getattr(args, keyword) for keyword in FLAG_NAMES},
    )

    for outcome in outcomes:
        print(outcome.report)
        print()
    print(render_summary(outcomes, multi_seed=len(seeds) > 1))
    return 0 if all(o.passed for o in outcomes) else 1
