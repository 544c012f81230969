"""Which ``src/repro`` functions the shipped commands reach.

Runs the drive set on the python backend — the in-place native build
and its ``--check``, a pooled ``figure2`` twice
(the second run served from the run cache), the registry's ``all``, every
``tools/cross_backend.py`` case, ``chaos`` with ``--broken-after`` /
``--repro-out`` and then ``--repro``, a 40-run campaign, one run for the
flags those leave out and every example with its flags — each command a
subprocess in one temporary working directory, so the default run cache
is populated, hit and thrown away.
A recorder installed in every interpreter the commands start (pool
workers too) notes each code object entered.  Then it prints, per module,
the function lines never entered, and names the functions outside
EXEMPT among them::

    python tools/reach.py            # the table
    python tools/reach.py --check    # exit 1 when the unreached lines
                                     # outside EXEMPT exceed LIMIT, or
                                     # the C kernel exceeds C_LINES

Counting.  A function's own lines run from its ``def`` (its first
decorator, when decorated) to its last line, minus the lines of the
functions nested in it.  A function is reached when a code object whose
first line is that line was entered: CPython gives a decorated
function's code object its first decorator's line.
"""

import argparse
import ast
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: Functions the drive set need not reach, by outcome.  ``path`` (relative
#: to ``src/repro``) names every function of a module; ``path::name`` one
#: function, the functions nested in it included.
#:
#: * ``oracle`` — the executable spec the tests compare the product with:
#:   the [R1]-[R5] and atomicity checkers with the history readers they
#:   walk, the Üresin-Dubois update-sequence model with its [A1]-[A3]
#:   checks, an ACO's synchronous fixed-point baseline, [C3] box
#:   membership and fixed point computed by a direct algorithm, the
#:   brute-force and Monte Carlo quorum checks with the quorum
#:   enumerations they walk, Theorem 1's bound check and the Monte Carlo
#:   it reads, the exposition-format parser and the message-stats
#:   breakdowns ``tests/conftest.py::stats_state`` compares across
#:   kernels;
#: * ``pinned`` — run only by the performance ledger, ``benchmarks/e2e``
#:   (directly or through a pinned module);
#: * ``deferred`` — ACOs no command builds yet, kept for running every
#:   ``repro.apps`` operator over quorum registers (Theorem 3 for any ACO).
EXEMPT = {
    "core/spec.py": "oracle",
    "core/atomicity.py": "oracle",
    "iterative/update_sequence.py": "oracle",
    "core/history.py::RegisterHistory.operations": "oracle",
    "core/history.py::RegisterHistory.staleness": "oracle",
    "iterative/aco.py::synchronous_fixed_point": "oracle",
    "iterative/aco.py::ACO.apply_all": "oracle",
    "iterative/aco.py::ACO.vector_converged": "oracle",
    "iterative/aco.py::ACO.in_domain": "oracle",
    "apps/apsp.py::ApspACO.in_domain": "oracle",
    "apps/apsp.py::ApspACO.fixed_point": "oracle",
    "apps/linear.py::JacobiACO.fixed_point": "oracle",
    "apps/mdp.py::ValueIterationACO.fixed_point": "oracle",
    "apps/sssp.py::SsspACO.fixed_point": "oracle",
    "quorum/analysis.py::brute_force_availability": "oracle",
    "quorum/analysis.py::empirical_intersection_probability": "oracle",
    "quorum/base.py::QuorumSystem.enumerate_quorums": "oracle",
    "quorum/fpp.py::FppQuorumSystem.enumerate_quorums": "oracle",
    "quorum/grid.py::GridQuorumSystem.enumerate_quorums": "oracle",
    "quorum/majority.py::MajorityQuorumSystem.enumerate_quorums": "oracle",
    "quorum/singleton.py::SingletonQuorumSystem.enumerate_quorums": "oracle",
    "quorum/tree.py::TreeQuorumSystem.enumerate_quorums": "oracle",
    "quorum/tree.py::TreeQuorumSystem._enumerate": "oracle",
    "experiments/survival.py::check_bound_holds": "oracle",
    "experiments/survival.py::quorum_level_survival": "oracle",
    "obs/export.py::validate_prometheus_text": "oracle",
    "obs/export.py::_parse_value": "oracle",
    **{
        f"sim/metrics.py::MessageStats.{name}": "oracle"
        for name in (
            "by_sender", "by_receiver", "by_kind", "delivered_by_kind",
            "dropped_by_kind", "dropped_by_receiver", "dropped_by_reason",
        )
    },
    "obs/shm.py": "pinned",
    "exec/testing.py": "pinned",
    "exec/pool.py::is_pool_worker": "pinned",
    "sim/kernel.py::native_available": "pinned",
    "sim/kernel.py::native_import_error": "pinned",
    "sim/kernel.py::kernel_info": "pinned",
    "sim/kernel.py::use_backend.__init__": "pinned",
    "sim/kernel.py::use_backend.__enter__": "pinned",
    "sim/kernel.py::use_backend.__exit__": "pinned",
    "_native/__init__.py::import_error": "pinned",
    "experiments/figure2.py::figure2_tasks": "pinned",
    "apps/dataflow.py": "deferred",
    "apps/agreement.py": "deferred",
    "apps/transitive_closure.py": "deferred",
}

#: The ratchet: ``--check`` fails when more function lines than this,
#: outside EXEMPT, go unreached.  Lower it when code goes; never raise it
#: to admit code no command runs.
LIMIT = 615

#: The C ratchet: ``--check`` also fails when the native kernel's source
#: is longer than this.  Lower it when C goes; raising it, like raising
#: LIMIT, is a deliberate edit.
C_LINES = 3989
C_SOURCE = PACKAGE / "_native" / "_kernelmodule.c"

#: Installed as ``sitecustomize`` in every interpreter a drive command
#: starts; forked pool workers inherit the trace function and reopen the
#: output under their own pid.  Each code object under REACH_ROOT is
#: written once per process, as soon as it is first entered, so a worker
#: that ends in ``os._exit`` or a signal loses nothing.
RECORDER = '''\
import os
import sys
import threading

_out = os.environ["REACH_OUT"]
_root = os.environ["REACH_ROOT"]
_seen = {}
_sink = [None, None]


def _record(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code
        if code.co_filename.startswith(_root):
            if _sink[0] != os.getpid():
                _sink[0] = os.getpid()
                _sink[1] = os.open(
                    os.path.join(_out, f"{_sink[0]}.txt"),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                )
            os.write(
                _sink[1],
                f"{code.co_filename}\\t{code.co_firstlineno}\\n".encode(),
            )
    return None


sys.settrace(_record)
threading.settrace(_record)
'''


class Function(NamedTuple):
    qualname: str
    first: int  # the first decorator's line, else the def line
    own: int  # own lines: the span minus nested functions' spans


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([d.lineno for d in node.decorator_list] + [node.lineno])
    return first, node.end_lineno


def _nested(node: ast.AST) -> List[ast.AST]:
    """The function definitions directly inside ``node``'s body."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(child)
        else:
            found.extend(_nested(child))
    return found


def functions(source: str) -> List[Function]:
    """Every function of a module's source, nested ones included."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first, last = _span(child)
                inner = sum(
                    end - start + 1
                    for start, end in map(_span, _nested(child))
                )
                qualname = prefix + child.name
                found.append(Function(qualname, first, last - first + 1 - inner))
                visit(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def package_functions(package: pathlib.Path) -> Dict[str, List[Function]]:
    """Module path (relative to ``package``, posix) -> its functions."""
    return {
        path.relative_to(package).as_posix(): functions(path.read_text())
        for path in sorted(package.rglob("*.py"))
    }


def exemption(module: str, function: Function) -> str:
    """The EXEMPT outcome covering a function, or ''."""
    if module in EXEMPT:
        return EXEMPT[module]
    for key, outcome in EXEMPT.items():
        path, _, name = key.partition("::")
        if path == module and name and (
            function.qualname == name
            or function.qualname.startswith(name + ".")
        ):
            return outcome
    return ""


def drive_set() -> List[Tuple[List[str], int]]:
    """(interpreter arguments, expected exit code) of every command run,
    in order; relative paths land in the temporary working directory."""
    sys.path.insert(0, str(ROOT / "tools"))
    from cross_backend import DEFAULT_CASES

    cli = ["-m", "repro.cli", "--kernel", "python"]
    commands = [
        # The in-place build and its check (CI and tests/conftest.py run
        # both); needs the C compiler.
        (["-m", "repro._native.build"], 0),
        (["-m", "repro._native.build", "--check"], 0),
        (cli + ["figure2", "--jobs", "2"], 0),
        (cli + ["figure2", "--jobs", "2"], 0),
        (cli + ["all", "--jobs", "1", "--output", "tables"], 0),
    ]
    commands += [
        (cli + shlex.split(case.replace("{out}", f"case{index}.out")), 0)
        for index, case in enumerate(DEFAULT_CASES)
    ]
    commands += [
        (cli + ["chaos", "--runs", "4", "--chaos-seed", "7", "--jobs", "1",
                "--broken-after", "2", "--repro-out", "repro.json"], 1),
        (cli + ["chaos", "--repro", "repro.json"], 0),
        (cli + ["chaos", "--runs", "40", "--chaos-seed", "2",
                "--jobs", "2"], 0),
    ]
    # The flags none of the above passes.
    commands += [
        (cli + shlex.split(flags), 0) for flags in (
            "serve --arrivals bursty --mean-burst 4 --peakedness 5 "
            "--duration 60 --clients 2 --zipf 0 --max-in-flight 8 "
            "--seed 7 --metrics-out serve.json",
            "serve --arrivals diurnal --period 50 --amplitude 0.5 "
            "--duration 60 --max-attempts 2 --loss-rate 0.3 --seed 7 "
            "--profile",
            "latency --op-deadline 5 --profile",
            "survival --clear-cache",
        )
    ]
    examples = {"figure2_reproduction.py": ["--plot"]}
    commands += [
        ([str(path), *examples.get(path.name, [])], 0)
        for path in sorted(EXAMPLES.glob("*.py"))
    ]
    return commands


def record(
    commands: Sequence[Tuple[List[str], int]],
    package: pathlib.Path = PACKAGE,
) -> Set[Tuple[str, int]]:
    """Run the commands under the recorder, with ``package``'s parent on
    the path; the (file, first line) of every code object under
    ``package`` that any of their processes entered.

    Raises RuntimeError when a command exits with a code it should not.
    """
    reached = set()
    with tempfile.TemporaryDirectory() as tmp:
        boot = pathlib.Path(tmp, "boot")
        out = pathlib.Path(tmp, "out")
        cwd = pathlib.Path(tmp, "cwd")
        for directory in (boot, out, cwd):
            directory.mkdir()
        (boot / "sitecustomize.py").write_text(RECORDER)
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env.update(
            PYTHONPATH=os.pathsep.join([str(boot), str(package.parent)]),
            REACH_OUT=str(out),
            REACH_ROOT=str(package) + os.sep,
            REPRO_KERNEL="python",
        )
        for arguments, expected in commands:
            proc = subprocess.run(
                [sys.executable, *arguments], cwd=cwd, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if proc.returncode != expected:
                raise RuntimeError(
                    f"exit {proc.returncode} (expected {expected}): "
                    f"{shlex.join(arguments)}\n{proc.stderr}"
                )
        for log in out.iterdir():
            for line in log.read_text().splitlines():
                filename, first = line.rsplit("\t", 1)
                reached.add((filename, int(first)))
    return reached


class Row(NamedTuple):
    module: str
    lines: int  # own lines of every function
    unreached: int  # own lines of the functions never entered
    exempt: int  # of those, the lines EXEMPT covers
    names: List[Tuple[str, int]]  # unreached outside EXEMPT, own lines


def tabulate(
    modules: Dict[str, List[Function]], reached: Set[Tuple[str, int]],
    package: pathlib.Path = PACKAGE,
) -> List[Row]:
    """One row per module: what of it ``reached`` does not cover."""
    rows = []
    for module, found in modules.items():
        filename = str(package / module)
        unreached = exempt = 0
        names = []
        for function in found:
            if (filename, function.first) in reached:
                continue
            unreached += function.own
            if exemption(module, function):
                exempt += function.own
            else:
                names.append((function.qualname, function.own))
        rows.append(Row(module, sum(f.own for f in found), unreached,
                        exempt, names))
    return rows


def report(rows: Sequence[Row]) -> int:
    """Print the table; returns the unreached lines outside EXEMPT."""
    print(f"{'module':44} {'lines':>6} {'unreached':>9} {'exempt':>6} "
          f"{'outside':>7}")
    for row in rows:
        if not row.unreached:
            continue
        print(f"{row.module:44} {row.lines:6} {row.unreached:9} "
              f"{row.exempt:6} {row.unreached - row.exempt:7}")
        for name, own in row.names:
            print(f"    {name} ({own})")
    lines = sum(row.lines for row in rows)
    unreached = sum(row.unreached for row in rows)
    outside = unreached - sum(row.exempt for row in rows)
    print(f"unreached: {unreached} of {lines} function lines "
          f"({unreached / lines:.1%}); outside EXEMPT: {outside} "
          f"({outside / lines:.1%}), limit {LIMIT}")
    return outside


def c_lines(path: pathlib.Path = C_SOURCE) -> int:
    """The number of lines of a C source file."""
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def ratchet(outside: int, c_count: int) -> List[str]:
    """Why ``--check`` fails: one message per limit exceeded."""
    failures = []
    if outside > LIMIT:
        failures.append(
            f"{outside} unreached function lines outside EXEMPT exceed the "
            f"limit {LIMIT}: drive the new code from a shipped command, or "
            "delete it"
        )
    if c_count > C_LINES:
        failures.append(
            f"{C_SOURCE.name} has {c_count} lines, over C_LINES {C_LINES}: "
            "shrink it, or raise C_LINES on purpose"
        )
    return failures


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when unreached lines outside EXEMPT "
                             "exceed LIMIT or the C kernel's lines C_LINES")
    args = parser.parse_args(argv)
    try:
        reached = record(drive_set())
    except RuntimeError as error:
        print(f"reach: {error}", file=sys.stderr)
        return 2
    outside = report(tabulate(package_functions(PACKAGE), reached))
    count = c_lines()
    print(f"{C_SOURCE.relative_to(ROOT)}: {count} lines, limit {C_LINES}")
    failures = ratchet(outside, count) if args.check else []
    for failure in failures:
        print(f"reach: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
