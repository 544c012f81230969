"""Cross-backend byte identity, through the CLI.

Runs each ``repro.cli`` command line once with ``--kernel python`` and
once with ``--kernel native`` and compares, byte for byte, the artifact
the command line names with the ``{out}`` placeholder::

    python tools/cross_backend.py            # the CI list below
    python tools/cross_backend.py "serve --duration 60 --snapshot-out {out}"

Exit 0 when every pair is identical, 1 on a difference, a failed run or
a run whose stderr reports hung operations, 2 when the native extension
is not built (python would be compared with python).
"""

import filecmp
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
from typing import List, Sequence

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: What CI compares: a chaos campaign's metrics (loss, faults,
#: adversaries, membership, the spec monitor; never cached, so each
#: backend simulates every run), a churned service snapshot, a lossy
#: churned one with plain clients (the C loss draw, retry jitter and
#: stale-view re-dispatch), a lossy churned two-phase one (the
#: multi-writer plan's query and update rounds in the C client core; it
#: must also leave nothing hung) and the closed-loop Figure 2 sweep's
#: metrics (Alg. 1 issues through the C client core on native).
DEFAULT_CASES = (
    "chaos --runs 10 --chaos-seed 1 --jobs 2 --metrics-out {out}",
    "serve --duration 120 --rate 4 --clients 2 --churn 40 --churn-batch 2 "
    "--seed 7 --snapshot-out {out}",
    "serve --churn 6.25 --loss-rate 0.1 --duration 120 --seed 7 "
    "--snapshot-out {out}",
    "serve --write-mode two_phase --loss-rate 0.2 --churn 40 --duration 150 "
    "--rate 4 --seed 7 --snapshot-out {out}",
    "figure2 --jobs 1 --no-cache --metrics-out {out}",
)


def compare(cases: Sequence[str], workdir: str) -> List[str]:
    """Run every case on both backends; returns one line per failure."""
    from repro.cli import HUNG_OPS_WARNING

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    failures = []
    for index, case in enumerate(cases):
        outputs, failed = [], False
        for backend in ("python", "native"):
            outputs.append(os.path.join(workdir, f"case{index}_{backend}"))
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "--kernel", backend]
                + shlex.split(case.replace("{out}", outputs[-1])),
                env=env,
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                failed = True
                failures.append(
                    f"exit {proc.returncode} on {backend}: {case}\n"
                    f"{proc.stdout}{proc.stderr}"
                )
            elif HUNG_OPS_WARNING in proc.stderr:
                failed = True
                failures.append(
                    f"hung operations on {backend}: {case}\n{proc.stderr}"
                )
        if failed:
            continue
        if not all(os.path.isfile(out) for out in outputs):
            failures.append(f"artifact not written: {case}")
        elif not filecmp.cmp(*outputs, shallow=False):
            failures.append(f"python and native differ: {case}")
    return failures


def main(argv: Sequence[str]) -> int:
    sys.path.insert(0, SRC)
    from repro.sim import kernel

    if not kernel.native_available():
        print(
            f"cross_backend: native kernel not built "
            f"({kernel.native_import_error()})",
            file=sys.stderr,
        )
        return 2
    cases = list(argv) or DEFAULT_CASES
    with tempfile.TemporaryDirectory() as workdir:
        failures = compare(cases, workdir)
    for failure in failures:
        print(f"cross_backend: {failure}", file=sys.stderr)
    if not failures:
        print(f"{len(cases)} artifact(s) byte-identical across backends")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
