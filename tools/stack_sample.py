"""Where a command's CPU time goes, by C stack sampling (Linux only).

Compiles a small ``LD_PRELOAD`` shim with the native build's compiler,
starts the command with it and samples the command's own process: every
millisecond of CPU time a SIGPROF handler records the C call stack
(``backtrace``).  The shim switches itself off for anything the process
starts (a pool worker, a compiler), so only that one process is sampled
(at most once per kernel tick: 250 Hz on a 250 Hz kernel).
At exit the stacks are resolved against the ELF symbol tables (``nm``)
of the interpreter, ``libpython`` and every extension, the native kernel
included, and three tables of the top ``TOP`` rows are printed:

* **inclusive**: the share of samples with the function anywhere on the
  stack (``gc_collect_main`` is the cyclic collector; ``PyObject_GetAttr``
  is by-name attribute access; ``_PyEval_EvalFrameDefault`` is Python
  code);
* **by-name attribute access, by innermost kernel caller**: the samples
  inside a by-name attribute call (:data:`BY_NAME`) made straight from a
  ``_kernel*.so`` frame, charged to that kernel function, and their
  total;
* **innermost kernel function**: each sample charged to the innermost
  frame in ``_kernel*.so`` — as ``<function> → python`` when a Python
  frame (``_PyEval_EvalFrameDefault``) lies between it and the leaf, so
  a kernel function's own C work and the Python callbacks it runs are
  two rows — or to ``(no kernel frame)``.

::

    python tools/stack_sample.py                  # figure2 on native
    python tools/stack_sample.py -- \\
        python -m repro.cli chaos --runs 20 --jobs 1 --kernel native

The default command runs the scaled-down Figure 2 sweep serially on the
native kernel, uncached, in one process, again and again until the shim
has taken at least :data:`MIN_SAMPLES` samples (it asks the shim's
``stack_sample_count``), so imports are a small share.  It does not run
as part of any other command or check.  Exit status: the command's, or 2
when the platform, the compiler or ``nm`` is missing.
"""

import argparse
import bisect
import collections
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Rows printed per table.
TOP = 30

#: The samples the default command repeats its sweep to reach.
MIN_SAMPLES = 1000

#: The frame of a running Python function.
PYTHON_FRAME = "_PyEval_EvalFrameDefault"

#: The C API functions that look an attribute up by its name.
BY_NAME = frozenset({
    "PyObject_GetAttr", "PyObject_SetAttr",
    "PyObject_GetAttrString", "PyObject_SetAttrString",
})

#: The shim.  Its constructor arms an ITIMER_PROF timer when
#: STACK_SAMPLE_OUT names an output file, and unsets the variable so that
#: processes this one starts stay unsampled (a forked child keeps no
#: timer); its destructor writes one line of hex return addresses per
#: sample, innermost first, then the process's memory map.
SHIM = r"""
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define DEPTH 128
static void **buf;
static size_t used, cap = (size_t)1 << 21;
static volatile size_t taken;
static char out[4096];

static void on_prof(int sig)
{
    (void)sig;
    if (used + DEPTH + 1 > cap)
        return;
    int n = backtrace(buf + used + 1, DEPTH);
    buf[used] = (void *)(intptr_t)n;
    used += (size_t)n + 1;
    taken++;
}

/* The samples taken so far, for a command that samples until it has
 * enough. */
size_t stack_sample_count(void)
{
    return taken;
}

__attribute__((constructor)) static void start(void)
{
    const char *path = getenv("STACK_SAMPLE_OUT");
    if (path == NULL || (buf = malloc(cap * sizeof(void *))) == NULL)
        return;
    snprintf(out, sizeof out, "%s", path);
    unsetenv("STACK_SAMPLE_OUT");
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder outside the handler */
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_handler = on_prof;
    action.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval timer = {{0, 1000}, {0, 1000}}; /* 1000 Hz */
    setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void stop(void)
{
    if (buf == NULL || out[0] == 0)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *file = fopen(out, "w");
    if (file == NULL)
        return;
    for (size_t i = 0; i < used; i += (size_t)buf[i] + 1) {
        for (intptr_t j = 1; j <= (intptr_t)buf[i]; j++)
            fprintf(file, "%lx ", (unsigned long)buf[i + j]);
        fputc('\n', file);
    }
    fputs("MAPS\n", file);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps != NULL && fgets(line, sizeof line, maps) != NULL)
        fputs(line, file);
    if (maps != NULL)
        fclose(maps);
    fclose(file);
}
"""


def default_command(output: str) -> List[str]:
    """The scaled-down Figure 2 sweep on native, repeated in one process
    until the shim has taken :data:`MIN_SAMPLES` samples."""
    args = ["figure2", "--jobs", "1", "--no-cache", "--kernel", "native",
            "--output", output]
    loop = (
        "import ctypes, sys\n"
        "from repro.cli import main\n"
        "count = ctypes.CDLL(None).stack_sample_count\n"
        "count.restype = ctypes.c_size_t\n"
        "while True:\n"
        f"    code = main({args!r})\n"
        f"    if code or count() >= {MIN_SAMPLES}:\n"
        "        sys.exit(code)\n"
    )
    return [sys.executable, "-c", loop]


def compiler() -> str:
    sys.path.insert(0, str(SRC))
    from repro._native import build

    return build.compiler()


def build_shim(workdir: pathlib.Path) -> pathlib.Path:
    source = workdir / "stack_sample_shim.c"
    library = workdir / "stack_sample_shim.so"
    source.write_text(SHIM)
    subprocess.run(
        [compiler(), "-O2", "-fPIC", "-shared", str(source), "-o",
         str(library)],
        check=True,
    )
    return library


class Symbols:
    """Address -> function name, from one ELF file's symbol table."""

    def __init__(self, path: str) -> None:
        self.starts: List[int] = []
        self.names: List[str] = []
        # A stripped library (libc) still has its dynamic symbols.
        for flags in (["-n"], ["-n", "-D"]):
            listing = subprocess.run(
                ["nm", *flags, "--defined-only", path],
                capture_output=True, text=True,
            ).stdout
            for line in listing.splitlines():
                parts = line.split()
                if len(parts) == 3 and parts[1] in "tTwWiI":
                    self.starts.append(int(parts[0], 16))
                    # A compiler's split-off part (.cold, .isra.0,
                    # .part.0) is its function; a version tag goes too.
                    self.names.append(re.split(r"[.@]", parts[2])[0] or parts[2])
            if self.starts:
                break

    def name(self, offset: int) -> Optional[str]:
        at = bisect.bisect_right(self.starts, offset) - 1
        return self.names[at] if at >= 0 else None


def read_samples(path: pathlib.Path) -> Tuple[List[List[int]], List[Tuple]]:
    samples: List[List[int]] = []
    maps: List[Tuple[int, int, str]] = []
    lines = path.read_text().splitlines()
    split = lines.index("MAPS")
    for line in lines[:split]:
        samples.append([int(word, 16) for word in line.split()])
    bases: Dict[str, int] = {}
    for line in lines[split + 1:]:
        parts = line.split()
        if len(parts) < 6 or not parts[5].startswith("/"):
            continue
        low, high = (int(edge, 16) for edge in parts[0].split("-"))
        if int(parts[2], 16) == 0:
            bases.setdefault(parts[5], low)
        maps.append((low, high, parts[5]))
    # Symbol values are relative to the object's load base: the start of
    # its mapping at file offset 0.
    return samples, [(low, high, path, bases.get(path, 0))
                     for low, high, path in maps]


def resolve(samples, maps) -> List[List[Tuple[str, str]]]:
    """Each sample as (object file, function) pairs, innermost first;
    the sampler's own frames dropped."""
    maps.sort()
    lows = [entry[0] for entry in maps]
    tables: Dict[str, Symbols] = {}
    cache: Dict[int, Tuple[str, str]] = {}

    def frame(address: int) -> Tuple[str, str]:
        if address not in cache:
            at = bisect.bisect_right(lows, address) - 1
            where, name = "?", f"0x{address:x}"
            if at >= 0 and address < maps[at][1]:
                _, _, path, base = maps[at]
                where = os.path.basename(path)
                table = tables.get(path) or tables.setdefault(path, Symbols(path))
                # A return address is one past the call: look up address-1.
                name = table.name(address - 1 - base) or f"{where}+0x{address - base:x}"
            cache[address] = (where, name)
        return cache[address]

    resolved = []
    for sample in samples:
        frames = [frame(address) for address in sample]
        while frames and frames[0][0].startswith("stack_sample_shim"):
            frames.pop(0)
        # Then the signal trampoline, and the interrupted function.
        resolved.append(frames[1:])
    return resolved


def innermost_kernel(frames) -> str:
    """The row a sample is charged to in the innermost-kernel table."""
    for at, (where, name) in enumerate(frames):
        if where.startswith("_kernel"):
            python = any(inner == PYTHON_FRAME for _, inner in frames[:at])
            return f"{name} → python" if python else name
    return "(no kernel frame)"


def report(stacks) -> None:
    total = len(stacks)
    if total == 0:
        print("no samples")
        return
    inclusive: collections.Counter = collections.Counter()
    by_name: collections.Counter = collections.Counter()
    kernel: collections.Counter = collections.Counter()
    for frames in stacks:
        inclusive.update({name for _, name in frames})
        caller = next(
            (frames[i + 1][1] for i in range(len(frames) - 1)
             if frames[i][1] in BY_NAME
             and frames[i + 1][0].startswith("_kernel")),
            None,
        )
        if caller is not None:
            by_name[caller] += 1
        kernel[innermost_kernel(frames)] += 1
    print(f"{total} samples\n\ninclusive share (function anywhere on the stack)")
    for name, count in inclusive.most_common(TOP):
        print(f"  {count / total:6.1%}  {name}")
    print("\nby-name attribute access, by innermost kernel caller")
    for name, count in by_name.most_common(TOP):
        print(f"  {count / total:6.1%}  {name}")
    print(f"  {sum(by_name.values()) / total:6.1%}  (in all)")
    print("\nshare by innermost native kernel function")
    for name, count in kernel.most_common(TOP):
        print(f"  {count / total:6.1%}  {name}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="*",
                        help="the command to sample (after --)")
    args = parser.parse_args(argv)
    if not sys.platform.startswith("linux"):
        print("stack_sample: Linux only", file=sys.stderr)
        return 2
    if shutil.which(compiler()) is None or shutil.which("nm") is None:
        print("stack_sample: needs the C compiler and nm", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="stack-sample-") as tmp:
        workdir = pathlib.Path(tmp)
        library = build_shim(workdir)
        samples_path = workdir / "samples.txt"
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(
            filter(None, [str(library), env.get("LD_PRELOAD")])
        )
        env["STACK_SAMPLE_OUT"] = str(samples_path)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        command = args.command or default_command(str(workdir / "output"))
        done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL)
        if not samples_path.exists():
            print("stack_sample: the command wrote no samples",
                  file=sys.stderr)
            return done.returncode or 1
        report(resolve(*read_samples(samples_path)))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
