"""Smoke test for tools/stack_sample.py (Linux, C compiler and nm)."""

import importlib.util
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro._native import build

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or shutil.which(build.compiler()) is None
    or shutil.which("nm") is None,
    reason="stack sampling needs Linux, the C compiler and nm",
)
def test_samples_the_command_and_names_its_functions():
    busy = "import time\nend = time.process_time() + 0.4\n" \
           "while time.process_time() < end: sum(range(1000))"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stack_sample.py"),
         "--", sys.executable, "-c", busy],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    samples = int(lines[0].split()[0])
    assert samples >= 20
    assert "inclusive share (function anywhere on the stack)" in lines
    assert "share by innermost native kernel function" in lines
    by_name = lines.index("by-name attribute access, by innermost kernel "
                          "caller")
    # No kernel frame calls anything by name in this command.
    assert lines[by_name + 1].split() == ["0.0%", "(in", "all)"]
    inclusive = lines[lines.index("inclusive share (function anywhere "
                                  "on the stack)") + 1:]
    assert any(line.split()[-1] == "_PyEval_EvalFrameDefault"
               for line in inclusive)
    # The command loads no kernel: every sample is charged to no frame.
    assert lines[-1].split() == ["100.0%", "(no", "kernel", "frame)"]


def test_innermost_kernel_rows_split_c_work_from_python_callbacks():
    spec = importlib.util.spec_from_file_location(
        "stack_sample", ROOT / "tools" / "stack_sample.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    kernel = ("_kernel.cpython-311.so", "pop_and_dispatch")
    heap = ("_kernel.cpython-311.so", "heap_push")
    python = ("libpython3.11.so", "_PyEval_EvalFrameDefault")
    leaf = ("libpython3.11.so", "PyDict_GetItem")
    assert tool.innermost_kernel([leaf, kernel]) == "pop_and_dispatch"
    assert tool.innermost_kernel([leaf, python, kernel]) == \
        "pop_and_dispatch → python"
    # The innermost kernel frame decides, and only frames inside it count.
    assert tool.innermost_kernel([heap, python, kernel]) == "heap_push"
    assert tool.innermost_kernel([leaf, python]) == "(no kernel frame)"
