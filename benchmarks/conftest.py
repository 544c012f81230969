"""The fixture of ``bench_speedup.py``'s pytest entry point.

``bench_speedup`` writes the ``BENCH_parallel.json`` record under
``benchmarks/output/``; ``output_dir`` is that directory.  The repo's
one benchmark is ``benchmarks/e2e`` (declared in ``BENCHMARK.json``).
The paper's and the subsystems' claims are tier-1 tests under
``tests/``, and the paper-scale tables in ``benchmarks/output/full/``
come from ``python -m repro.cli all --full``.
"""

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR
