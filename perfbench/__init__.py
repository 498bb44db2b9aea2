"""End-to-end and per-layer benchmark for the ds4 package.

`run.py` is the entry point; README.md describes the workloads, the
metrics and how to read them.
"""

from pathlib import Path

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent
#: Source tree of the package under test; the benchmark imports ds4 from here.
SRC = ROOT / "src"
#: Where traced runs write their spans.
OUT = Path(__file__).resolve().parent / "out"
