"""Optional compiled kernel backend (``REPRO_KERNEL=native``).

This package houses the C extension ``repro._native._kernel`` (the
event-heap scheduler core, the network core and the register-protocol
cores) plus its build glue and Python-side wrapper.  The extension is
**optional**: a missing compiler, an unbuilt checkout or a stale
extension degrades gracefully — :func:`load_kernel` returns ``None`` and
the caller (:mod:`repro.sim.kernel`) falls back to the pure-python
reference kernel with a one-line warning.

Build in place with ``python -m repro._native.build`` (or via
``pip install .``, whose ``setup.py`` marks the extension optional so a
toolchain-less box still installs cleanly).
"""

import importlib.util
import pathlib
from typing import Optional

#: The ``KERNEL_ABI`` this checkout's Python side is written against: the
#: protocol cores pack and index message tuples by position, so an
#: extension compiled from another revision's source must not be used.
KERNEL_ABI = 17

_kernel_module = None
_import_error: Optional[str] = None
_attempted = False


def _build_module():
    """``build.py``, loaded by path as setup.py loads it: importing it as
    ``repro._native.build`` here, while ``python -m repro._native.build``
    imports this package, would pre-empt that command's own run."""
    spec = importlib.util.spec_from_file_location(
        "_repro_native_build", pathlib.Path(__file__).with_name("build.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_kernel():
    """Import and return the compiled ``_kernel`` module, or ``None``.

    The import is attempted once per process; the failure reason (if
    any) is kept for diagnostics via :func:`import_error`.  An extension
    is stale when its ``KERNEL_ABI`` differs from this checkout's or, when
    ``_kernelmodule.c`` is present (a source checkout; a wheel ships no C
    source), when it was compiled from other source than that file.
    """
    global _kernel_module, _import_error, _attempted
    if not _attempted:
        _attempted = True
        try:
            from repro._native import _kernel
        except ImportError as error:
            _import_error = str(error)
        else:
            build = _build_module()
            built = getattr(_kernel, "KERNEL_ABI", None)
            source = getattr(_kernel, "SOURCE_HASH", None)
            stale = None
            if built != KERNEL_ABI:
                stale = (f"built with KERNEL_ABI {built}, this checkout "
                         f"needs {KERNEL_ABI}")
            elif build.SOURCE.is_file() and source != build.source_hash():
                stale = (f"built from source {source}, this checkout has "
                         f"{build.source_hash()}")
            else:
                _kernel_module = _kernel
            if stale is not None:
                _import_error = (
                    f"stale extension: {stale}; rebuild with "
                    "`python -m repro._native.build`"
                )
    return _kernel_module


def import_error() -> Optional[str]:
    """Why the native kernel failed to import (None when loaded/untried)."""
    load_kernel()
    return _import_error
