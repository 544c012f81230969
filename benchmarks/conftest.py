"""The fixture of the ``bench_*.py`` modules' pytest entry points.

``bench_adversary``, ``bench_kernel``, ``bench_membership``,
``bench_service`` and ``bench_speedup`` each write one ``BENCH_*.json``
record under ``benchmarks/output/``; ``output_dir`` is that directory.
The paper's claims are tier-1 tests in ``tests/test_experiments.py``,
and the paper-scale tables in ``benchmarks/output/full/`` come from
``python -m repro.cli all --full``.
"""

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR
