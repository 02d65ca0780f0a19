"""Named, independently seeded random streams.

Experiments must be reproducible and, more subtly, *decoupled*: adding a
random decision in one subsystem (say, scheduling) must not perturb the
random sequence another subsystem (say, the workload generator) sees.
:class:`RngStreams` therefore derives one independent generator per named
stream from a single master seed, using SHA-256 of ``(seed, name)`` so that
stream identity is stable across runs and machines.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

import numpy as np


def _derive_seed(master_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A family of named random streams derived from one master seed.

    ``stream(name)`` returns a :class:`random.Random`; ``numpy_stream(name)``
    returns a :class:`numpy.random.Generator`.  The same (seed, name) pair
    always yields the same sequence.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}
        self._np_streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> random.Random:
        """The stdlib stream for ``name`` (created on first use)."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.master_seed, name))
        return self._streams[name]

    def numpy_stream(self, name: str) -> np.random.Generator:
        """The NumPy stream for ``name`` (created on first use)."""
        if name not in self._np_streams:
            self._np_streams[name] = np.random.default_rng(
                _derive_seed(self.master_seed, "np:" + name)
            )
        return self._np_streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStreams seed={self.master_seed} streams={sorted(self._streams)}>"
