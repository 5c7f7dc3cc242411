"""The host-speed calibration loop (see REFERENCE_MS in run.py)."""

import gc
import time


def reference_pass() -> float:
    """Milliseconds for one pass of a fixed pure-Python loop over small dicts,
    lists and strings, the kinds of objects the program works with. The
    collector is paused for the pass, so that no collector setting of the
    program's can change it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table = {}
    for i in range(1000):
        table[str(i)] = [i, 2 * i, {"a": i}]
    repr(table)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed * 1e3
