"""Run the reproduction's experiment suite from the command line.

Usage::

    python -m repro.experiments                 # all, quick mode
    python -m repro.experiments --full          # full-size sweeps
    python -m repro.experiments e3 e9 a1        # a subset
    python -m repro.experiments --jobs 4        # parallel sweep
    python -m repro.experiments --seeds 0 1 2   # one sweep per seed
    python -m repro.experiments --seed 7 --list

Exit status is non-zero if any claim check fails.  The implementation
lives in :mod:`repro.experiments.runner`; this module is only the
``python -m`` entry point.
"""

from __future__ import annotations

import sys

from repro.experiments.runner import main

if __name__ == "__main__":
    sys.exit(main())
