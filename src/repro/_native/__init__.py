"""Optional compiled kernel backend (``REPRO_KERNEL=native``).

This package houses the C extension ``repro._native._kernel`` (the
event-heap scheduler core, scalar stats counters, the network core and
the register-protocol cores) plus its build glue and Python-side
wrappers.  The extension
is **optional**: a missing compiler, an unbuilt checkout or an
extension built from another revision (``KERNEL_ABI`` mismatch) degrades
gracefully — :func:`load_kernel` returns ``None`` and the caller
(:mod:`repro.sim.kernel`) falls back to the pure-python reference kernel
with a one-line warning.

Build in place with ``python -m repro._native.build`` (or via
``pip install .``, whose ``setup.py`` marks the extension optional so a
toolchain-less box still installs cleanly).
"""

from typing import Optional

#: The ``KERNEL_ABI`` this checkout's Python side is written against: the
#: protocol cores pack and index message tuples by position, so an
#: extension compiled from another revision's source must not be used.
KERNEL_ABI = 7

_kernel_module = None
_import_error: Optional[str] = None
_attempted = False


def load_kernel():
    """Import and return the compiled ``_kernel`` module, or ``None``.

    The import is attempted once per process; the failure reason (if
    any) is kept for diagnostics via :func:`import_error`.
    """
    global _kernel_module, _import_error, _attempted
    if not _attempted:
        _attempted = True
        try:
            from repro._native import _kernel
        except ImportError as error:
            _import_error = str(error)
        else:
            built = getattr(_kernel, "KERNEL_ABI", None)
            if built == KERNEL_ABI:
                _kernel_module = _kernel
            else:
                _import_error = (
                    f"stale extension: built with KERNEL_ABI {built}, this "
                    f"checkout needs {KERNEL_ABI}; rebuild with "
                    "`python -m repro._native.build`"
                )
    return _kernel_module


def import_error() -> Optional[str]:
    """Why the native kernel failed to import (None when loaded/untried)."""
    load_kernel()
    return _import_error
