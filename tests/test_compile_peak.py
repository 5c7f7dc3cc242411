"""Every module of the package compiles below the memory step of a fresh
run.

Run from a fresh copy with PYTHONDONTWRITEBYTECODE=1, as the benchmark
runs, the interpreter compiles each module it imports, and the largest
compile sets part of the process's peak resident memory: on CPython 3.11,
once a module's compile() peaks above about 2,010 KiB (tracemalloc), the
benchmark's peak_rss_mb reads up to 0.25 MB higher. Other CPython versions
compile with other peaks, so the bound holds on 3.11 alone.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shopfloor"
BOUND_KIB = 2000


def compile_peak_kib(path: Path) -> float:
    """The tracemalloc peak of compiling path's source, in KiB."""
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the bound is 3.11's compiler")
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_each_module_compiles_below_the_memory_step(path):
    assert compile_peak_kib(path) <= BOUND_KIB
