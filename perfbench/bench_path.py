"""Locate the checkout the benchmark sits in and import monozeta from it."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def use_checkout_sources():
    """Put this checkout's src/ first on sys.path, so the benchmark measures
    the sources beside it and never an installed copy; exit 1 without them."""
    if not os.path.isfile(os.path.join(SRC, "monozeta", "__init__.py")):
        raise SystemExit(f"perfbench: no monozeta sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
