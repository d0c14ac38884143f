"""Locate the checkout the benchmark runs from and import its source.

The benchmark always measures the ``src/`` tree of the checkout it
sits in, never an installed copy of the package, so a directory that
holds only the benchmark fails here instead of measuring something
else.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: root of the checkout (the directory holding ``BENCHMARK.json``)
ROOT = Path(__file__).resolve().parent.parent
#: scratch space for iteration inputs, removed after each iteration
WORK = ROOT / "perfbench" / ".work"
#: one JSON file per run, read by ``report.py``
RESULTS = ROOT / "perfbench" / "results"


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``; exit if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {src / 'repro'} not found; the benchmark runs from "
            "the root of a checkout of the repository"
        )
    sys.path.insert(0, str(src))
