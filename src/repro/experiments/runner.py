"""The experiment runner: registry, parallel fan-out, and the CLI.

The full sweep (E1-E18 plus the A1-A4 ablations) is embarrassingly
parallel: every experiment builds its own :class:`LegionSystem` from a
seed and shares nothing with the others.  ``run_many`` therefore fans the
sweep across a :class:`concurrent.futures.ProcessPoolExecutor` when asked
(``--jobs N``), while keeping the *printed output* byte-identical to the
sequential run: workers return rendered reports, and the parent prints
them in submission order.  Simulated-time results are deterministic per
(experiment, quick, seed) regardless of scheduling, so parallelism is
purely a wall-clock optimisation.

``python -m repro.experiments`` dispatches here; see :func:`main`.
"""

from __future__ import annotations

import argparse
import inspect
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments import (
    ablation_caching,
    ablation_propagation,
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
from repro.experiments.ablation_ttl_locality import run_locality, run_ttl

#: Experiments refactored onto the shard protocol: a module exposing
#: ``shard_units(...)`` (the picklable independent work units, each its
#: own seeded system), ``shard_measure(unit, ...)`` (run one unit in any
#: process; returns a picklable partial), and ``shard_finish(partials,
#: ...)`` (merge in deterministic unit order; returns the
#: ExperimentResult).  ``run_many(..., jobs=N)`` runs the units of these
#: experiments on the same worker pool as the whole experiments.  The
#: merge consumes partials in unit order, so reports are byte-identical
#: at any ``jobs``.
SHARDED = {
    "e9": e9_scaling,
    "e13": e13_availability,
    "e15": e15_overload,
    "e16": e16_georeplication,
    "e17": e17_governor,
    "e18": e18_scenarios,
}

RUNNERS = {
    "e1": e1_binding_path.run,
    "e2": e2_agent_load.run,
    "e3": e3_combining_tree.run,
    "e4": e4_class_cloning.run,
    "e5": e5_lifecycle.run,
    "e6": e6_stale_bindings.run,
    "e7": e7_replication.run,
    "e8": e8_inheritance.run,
    "e9": e9_scaling.run,
    "e10": e10_bootstrap.run,
    "e11": e11_autonomy.run,
    "e12": e12_loids.run,
    "e13": e13_availability.run,
    "e14": e14_autoscale.run,
    "e15": e15_overload.run,
    "e16": e16_georeplication.run,
    "e17": e17_governor.run,
    "e18": e18_scenarios.run,
    "a1": ablation_propagation.run,
    "a2": ablation_caching.run,
    "a3": run_ttl,
    "a4": run_locality,
}

#: The subsystem flags, declared once as (keyword, argparse options,
#: help).  The CLI derives its ``--keyword`` options from this table and
#: :func:`run_one` validates its ``**flags`` against it.  *Which*
#: experiment takes which flag is not repeated here: a flag reaches
#: exactly the runners whose signature declares its keyword.
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
        "default 8x",
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
    """One experiment run, reduced to picklable primitives.

    Workers in the process pool return these instead of
    :class:`~repro.experiments.common.ExperimentResult` (whose recorder
    holds arbitrary objects); the parent only needs the rendered report
    and the verdict.
    """

    name: str
    experiment: str
    passed: bool
    report: str
    elapsed: float
    seed: int


def _accepts(runner, keyword: str) -> bool:
    """Whether an experiment runner takes ``keyword`` as a parameter."""
    try:
        return keyword in inspect.signature(runner).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return False


def _filter_kwargs(fn, kwargs: dict) -> dict:
    """The subset of ``kwargs`` that ``fn``'s signature declares."""
    return {k: v for k, v in kwargs.items() if _accepts(fn, k)}


def _run_sharded(module, pool: ProcessPoolExecutor, kwargs: dict):
    """Run one experiment's units on ``pool`` and merge them in the parent.

    Units are independent by the shard contract (each builds its own
    seeded system), so scheduling is purely a wall-clock optimisation:
    partials are collected in unit order and merged by the module's
    ``shard_finish``, which produces the same ExperimentResult as the
    sequential run byte-for-byte.
    """
    units = module.shard_units(**_filter_kwargs(module.shard_units, kwargs))
    measure_kwargs = _filter_kwargs(module.shard_measure, kwargs)
    # Submit in reverse unit order: sweeps list units smallest first, so
    # reverse submission approximates longest-first scheduling and keeps
    # the expensive tail unit off the end of the critical path.
    futures = [
        pool.submit(module.shard_measure, unit, **measure_kwargs)
        for unit in reversed(units)
    ]
    partials = [future.result() for future in reversed(futures)]
    return module.shard_finish(
        partials, **_filter_kwargs(module.shard_finish, kwargs)
    )


def run_one(
    name: str,
    quick: bool,
    seed: int,
    pool: Optional[ProcessPoolExecutor] = None,
    **flags,
) -> RunOutcome:
    """Execute one experiment; never raises (a crash is a failed outcome).

    ``flags`` are the :data:`FLAGS` keywords; an unknown one is a caller
    bug and raises ``TypeError`` before anything runs.  Each flag that
    is not ``None`` is forwarded only to runners that declare its
    keyword; the rest run exactly as without it.

    ``pool`` (given only by :func:`run_many`, in the parent process) runs
    the independent units of a :data:`SHARDED` experiment on that pool's
    workers with a deterministic merge; a crashed unit is a crashed
    experiment.  Non-sharded experiments ignore it.
    """
    for keyword in flags:
        if keyword not in FLAG_NAMES:
            raise TypeError(
                f"unknown flag {keyword!r}; valid flags: {', '.join(FLAG_NAMES)}"
            )
    started = time.perf_counter()
    try:
        runner = RUNNERS[name]
        kwargs = {"quick": quick, "seed": seed}
        for keyword in flags:
            if flags[keyword] is not None and _accepts(runner, keyword):
                kwargs[keyword] = flags[keyword]
        module = SHARDED.get(name)
        if pool is not None and module is not None:
            result = _run_sharded(module, pool, kwargs)
        else:
            result = runner(**kwargs)
        report = result.render()
        experiment = result.experiment
        passed = result.passed
    except Exception:  # noqa: BLE001 - a crashed experiment is a FAIL, not an abort
        report = f"== {name}: CRASHED ==\n{traceback.format_exc().rstrip()}"
        experiment = name.upper()
        passed = False
    return RunOutcome(
        name=name,
        experiment=experiment,
        passed=passed,
        report=report,
        elapsed=time.perf_counter() - started,
        seed=seed,
    )


def run_many(
    names: Sequence[str],
    quick: bool = True,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    **flags,
) -> List[RunOutcome]:
    """Run ``names`` x ``seeds``, ``jobs`` at a time; outcomes in input order.

    ``flags`` (the :data:`FLAGS` keywords) go to every :func:`run_one`,
    which rejects an unknown one before any experiment runs.

    ``jobs=1`` runs inline (no pool, no fork) -- this is the reference
    path whose output the parallel path reproduces byte-for-byte.  Traced
    and fault-injected runs keep that contract: span ids, timestamps, and
    chaos schedules are functions of the per-experiment kernel's
    deterministic seed, so reports and exported artifacts are identical
    at any ``jobs``.

    ``jobs > 1`` opens the one worker pool.  Whole experiments and the
    units of :data:`SHARDED` experiments share its workers: the former
    are submitted as ``run_one`` calls, the latter are driven from this
    process, which submits their units and merges the partials, so no
    worker ever opens a pool of its own.
    """
    tasks = [(name, quick, seed) for seed in seeds for name in names]
    if jobs <= 1:
        return [run_one(*task, **flags) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # Whole experiments are queued first, so the workers are busy
        # while this process walks the sharded ones, and read last, so a
        # long one never holds up the submission of a later sweep's units.
        whole = {
            index: pool.submit(run_one, *task, **flags)
            for index, task in enumerate(tasks)
            if task[0] not in SHARDED
        }
        driven = {
            index: run_one(*task, pool=pool, **flags)
            for index, task in enumerate(tasks)
            if index not in whole
        }
        return [
            whole[index].result() if index in whole else driven[index]
            for index in range(len(tasks))
        ]


def render_summary(outcomes: Sequence[RunOutcome], multi_seed: bool) -> str:
    """The trailing PASS/FAIL table plus the one-line verdict."""
    lines = ["=" * 60]
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        tag = f"({o.name}, seed {o.seed})" if multi_seed else f"({o.name})"
        lines.append(f"  {status}  {o.experiment:<4} {tag}  {o.elapsed:6.1f}s")
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
            "run on N worker processes shared by whole experiments and "
            "the independent units of the e9/e13/e15/e16/e17/e18 sweeps; "
            "reports are byte-identical at any N (default 1)"
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
