"""Locate the library in the checkout the benchmark runs from.

The benchmark lives in ``perfbench/`` at the root of a source checkout and
always measures the ``src/affinecone`` package of that checkout, never an
installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"


class CheckoutError(RuntimeError):
    """The checkout does not hold the library sources."""


def import_library():
    """Import ``affinecone`` from ``src/`` of this checkout and return it."""
    init = SRC / "affinecone" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no library sources at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import affinecone

    if Path(affinecone.__file__).resolve() != init.resolve():
        raise CheckoutError(
            f"affinecone was imported from {affinecone.__file__}, not from {init}"
        )
    return affinecone
