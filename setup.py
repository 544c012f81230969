"""Build hook for the optional native kernel extension.

All project metadata lives in ``pyproject.toml``; this file exists only
to declare the C extension, marked ``optional`` so an install on a box
with no C toolchain still succeeds — the runtime then falls back to the
pure-python kernel (see ``repro.sim.kernel``).

Source checkouts (``PYTHONPATH=src``) build the same extension in place
with ``python -m repro._native.build`` instead.  That module owns the
one definition of what gets compiled in (numpy's C random library, when
present) and how floats are compiled; it is loaded by path here because
the package is not importable before it is installed.
"""

import importlib.util
import pathlib

from setuptools import Extension, setup

_spec = importlib.util.spec_from_file_location(
    "_repro_native_build",
    pathlib.Path(__file__).parent / "src" / "repro" / "_native" / "build.py",
)
_build = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_build)
_compile_flags, _link_flags = _build.npyrandom_flags()

setup(
    ext_modules=[
        Extension(
            "repro._native._kernel",
            sources=["src/repro/_native/_kernelmodule.c"],
            extra_compile_args=_build._EXACT_FP_FLAGS + _compile_flags,
            extra_link_args=_link_flags,
            optional=True,
        )
    ],
)
