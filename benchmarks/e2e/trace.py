"""The traced run: stdlib cProfile around one call, folded into layers.

The benchmark measures the program from outside, so the spans are the
profiler's: every function's self time (``tottime``: its duration minus
its callees) and call count, folded by source module into the 19 layers
below.  Built-in calls (heap, list, dict, len ...) have no module; their
self time is charged to the layer of the function that called them,
through the pstats callers table.

Shares are attribution, not speed.  cProfile taxes every Python frame
and no C loop, so Python-heavy layers read larger than they are, and a C
callable invoked through ``__call__`` (the native send/broadcast cores)
raises no profiler event at all: its time stays with the Python function
that called it.  Compare a share only with the same share on another
commit.
"""

import cProfile
import pstats
import time
from typing import Any, Callable, Dict, Optional, Tuple

LAYERS = (
    "sim.scheduler", "sim.network", "sim.futures", "sim.delays", "sim.other",
    "quorum", "registers.client", "registers.server", "registers.other",
    "membership", "iterative", "service", "obs.quantiles", "obs.other",
    "exec", "core", "native.core", "rng.numpy", "other",
)

#: repro/<package>/<file> -> layer, most specific first.
_FILE_LAYERS = {
    "sim/scheduler.py": "sim.scheduler",
    "sim/network.py": "sim.network",
    "sim/futures.py": "sim.futures",
    "sim/delays.py": "sim.delays",
    "registers/client.py": "registers.client",
    "registers/server.py": "registers.server",
    "obs/quantiles.py": "obs.quantiles",
}
_PACKAGE_LAYERS = {
    "sim": "sim.other",
    "quorum": "quorum",
    "registers": "registers.other",
    "membership": "membership",
    "iterative": "iterative",
    "apps": "iterative",
    "service": "service",
    "obs": "obs.other",
    "exec": "exec",
    "chaos": "exec",
    "core": "core",
    "adversary": "core",
    "_native": "native.core",
}

FuncKey = Tuple[str, int, str]


def layer_of_module(relative: str) -> str:
    """The layer of a source file given relative to ``src/repro``."""
    if relative in _FILE_LAYERS:
        return _FILE_LAYERS[relative]
    package = relative.split("/", 1)[0] if "/" in relative else ""
    return _PACKAGE_LAYERS.get(package, "other")


def _repro_relative(filename: str) -> Optional[str]:
    """``filename`` relative to ``src/repro``, or None outside the library."""
    _, found, relative = filename.rpartition("/src/repro/")
    return relative if found else None


def layer_of(func: FuncKey) -> Optional[str]:
    """The layer owning a pstats function key, or None for a plain
    built-in whose time belongs to its callers."""
    filename, _, name = func
    if filename == "~":
        if "repro._native._kernel" in name:
            return "native.core"
        if "numpy.random" in name:
            return "rng.numpy"
        return None
    relative = _repro_relative(filename)
    return "other" if relative is None else layer_of_module(relative)


def fold(stats: Dict[FuncKey, tuple]) -> Dict[str, Dict[str, float]]:
    """Fold a ``pstats.Stats.stats`` table into per-layer self time and calls."""
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            table[layer]["self_s"] += tottime
            table[layer]["calls"] += ncalls
        elif not callers:
            table["other"]["self_s"] += tottime
            table["other"]["calls"] += ncalls
        else:
            for caller, (caller_calls, _, caller_tottime, _) in callers.items():
                # A built-in called by another plain built-in is rare
                # (sorted -> a key function is Python): park it in other.
                row = table[layer_of(caller) or "other"]
                row["self_s"] += caller_tottime
                row["calls"] += caller_calls
    return table


def handler_calls(stats: Dict[FuncKey, tuple]) -> int:
    """Python ``on_message`` handler invocations under ``src/repro``."""
    return sum(
        entry[1] for func, entry in stats.items()
        if func[2] == "on_message" and _repro_relative(func[0]) is not None
    )


def traced(call: Callable[[], Any]) -> Tuple[Any, float, Dict[FuncKey, tuple]]:
    """Run ``call`` under cProfile; returns (result, wall seconds, stats)."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    return result, wall, pstats.Stats(profiler).stats


def layer_metrics(
    stats: Dict[FuncKey, tuple], units: int, backend: str
) -> Dict[str, float]:
    """``trace.<layer>.{self_share,calls_per_unit}.<backend>`` for one run."""
    table = fold(stats)
    total = sum(row["self_s"] for row in table.values())
    out = {}
    for layer, row in table.items():
        out[f"trace.{layer}.self_share.{backend}"] = (
            row["self_s"] / total if total else 0.0
        )
        out[f"trace.{layer}.calls_per_unit.{backend}"] = row["calls"] / units
    return out
