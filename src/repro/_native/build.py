"""Build the native kernel extension in place.

Usage::

    python -m repro._native.build            # compile into src/repro/_native/
    python -m repro._native.build --check    # exit 0 iff the extension imports

Compiles ``_kernelmodule.c`` with the active interpreter's configuration
(via ``sysconfig``) straight into this package directory, so a
``PYTHONPATH=src`` checkout picks it up without installing.  ``pip
install .`` builds the same extension through ``setup.py``, which loads
this file by path and passes :func:`npyrandom_flags` and the float flags
to setuptools, so the two builds cannot drift apart in what they compile
in.

A missing toolchain is not an error for the package as a whole — the
runtime falls back to the pure-python kernel — but this command reports
failure loudly so CI legs that *require* the native backend notice.
"""

import pathlib
import subprocess
import sys
import sysconfig

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent
SOURCE = PACKAGE_DIR / "_kernelmodule.c"


#: Python rounds every float operation on its own; a fused multiply-add
#: would round ``a * b + c`` once and change the bits of the C transcriptions
#: (the retry jitter, a delay added to the clock), so no build contracts.
_EXACT_FP_FLAGS = ["-ffp-contract=off"]


def extension_path() -> pathlib.Path:
    """Where the compiled module lands (ABI-tagged, import-ready)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return PACKAGE_DIR / f"_kernel{suffix}"


def compiler() -> str:
    """The C compiler to use: $CC, the interpreter's, or plain cc."""
    import os

    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    # sysconfig's CC can carry flags ("gcc -pthread"); keep the program.
    return cc.split()[0]


def npyrandom_flags() -> tuple:
    """(compile flags, link flags) for numpy's exported C random library.

    numpy ships ``libnpyrandom.a`` (the Generator distributions —
    bounded Lemire draws, the ziggurat exponential) as a public static
    library precisely so extensions can draw from a Generator's bit
    stream in C.  When it and the headers are importable, the kernel is
    compiled with ``-DREPRO_HAVE_NPYRANDOM`` and gains the native RNG
    fast paths (``HAVE_FAST_RNG == 1``); otherwise both lists are empty
    and the extension builds without them, sampling delays through
    Python as before.  The link flags must follow the object file so the
    linker resolves the distribution symbols it references.
    """
    try:
        import numpy
        import numpy.random
    except ImportError:
        return [], []
    archive = (
        pathlib.Path(numpy.random.__path__[0]) / "lib" / "libnpyrandom.a"
    )
    header = (
        pathlib.Path(numpy.get_include())
        / "numpy" / "random" / "distributions.h"
    )
    if not (archive.is_file() and header.is_file()):
        return [], []
    return (
        ["-DREPRO_HAVE_NPYRANDOM", f"-I{numpy.get_include()}"],
        [str(archive), "-lm"],
    )


def build(verbose: bool = True) -> pathlib.Path:
    """Compile the extension in place; returns the built path.

    Raises ``subprocess.CalledProcessError`` when compilation fails and
    ``FileNotFoundError`` when no compiler is available.
    """
    target = extension_path()
    include = sysconfig.get_paths()["include"]
    compile_flags, link_flags = npyrandom_flags()
    command = [
        compiler(),
        "-O2",
        "-fPIC",
        "-shared",
        "-fno-strict-aliasing",
        *_EXACT_FP_FLAGS,
        f"-I{include}",
        *compile_flags,
        str(SOURCE),
        *link_flags,
        "-o",
        str(target),
    ]
    if verbose:
        print(" ".join(command))
    subprocess.run(command, check=True)
    return target


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--check" in argv:
        from repro._native import import_error, load_kernel

        module = load_kernel()
        if module is None:
            print(f"native kernel unavailable: {import_error()}",
                  file=sys.stderr)
            return 1
        print(f"native kernel OK (ABI {module.KERNEL_ABI})")
        return 0
    try:
        target = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"native kernel build FAILED: {error}", file=sys.stderr)
        return 1
    print(f"built {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
