"""The experiment registry: task identity, completeness, docs in step.

The registry (:data:`repro.experiments.EXPERIMENTS`) is what the CLI,
the claim tests and the docs iterate; these tests pin what moving
the eleven artifacts onto it must not move — every task's cache key —
and that nothing is registered twice or not at all.
"""

import hashlib
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import repro.experiments
from repro import cli
from repro.chaos.campaign import CampaignConfig, generate_task
from repro.exec.cache import CACHE_FORMAT, MISS
from repro.exec.task import task_key
from repro.experiments import EXPERIMENTS
from tests.conftest import needs_native

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: blake2b-128 over the concatenated ``task_key`` of every task an
#: experiment submits, in submission order, with the task count — captured
#: at the commit before the registry (PR 21's parent), where each task was
#: a hand-written params dict.  A changed digest means changed cache keys:
#: every cached run is orphaned and seeded outputs may move.
TASK_DIGESTS = {
    ("ablations", "scaled_down"): (34, "ae6de2c3e92d36b1c38d070bf641fc1b"),
    ("ablations", "paper_scale"): (85, "047be81dd2be5bc3264ac946f820cb67"),
    ("churn", "scaled_down"): (2, "68081b1d6902a15fbbad19d5b5d3e1a4"),
    ("churn", "paper_scale"): (12, "29df9d62907546f8a0062cee8d0539ca"),
    ("fault", "scaled_down"): (9, "0085cb8c8488128cc3730b5b00a0796c"),
    ("fault", "paper_scale"): (15, "8c4ade8e98d84785dc2b873c3afc2b19"),
    ("figure2", "scaled_down"): (72, "ddd684a4216a53022792b3124e870e43"),
    ("figure2", "paper_scale"): (504, "481ae2c8c39d9db4e8eb39016ea7e818"),
    ("freshness", "scaled_down"): (2, "1906e2f7f2d90a16a7a441d9aefc797c"),
    ("freshness", "paper_scale"): (21, "b7547d1f87729161d43b8c5404edd7d2"),
    ("latency", "scaled_down"): (4, "c4b49c33fe51c6a7fbbb4989db33bc04"),
    ("latency", "paper_scale"): (6, "6e85dbf04fd873a5361085d2a59cf82d"),
    ("messages", "scaled_down"): (3, "853b41e5a56fe7f2f9a4c51d348ec242"),
    ("messages", "paper_scale"): (3, "e3b0bbc17f8bca5228463b7a8f07317d"),
    ("pseudocycles", "scaled_down"): (6, "696ac487357a9d0b10c5c80e7bb5ecfb"),
    ("pseudocycles", "paper_scale"): (35, "76dce898de867534509a1d17376ca7bf"),
    ("survival", "scaled_down"): (2, "12959963f20fea8e4b2fe1a196eb712f"),
    ("survival", "paper_scale"): (21, "e872d22c18a11a5cd4e5e025c4554f80"),
    ("tuning", "scaled_down"): (8, "a799b48ead0ea77b8de89c5d30ecb560"),
    ("tuning", "paper_scale"): (35, "f12bea9cbcd2fc13509f2369c6297bb2"),
}

#: The same for ``generate_task(CampaignConfig(runs=20, seed=s), i)``.
CHAOS_DIGESTS = {
    0: "11b308da1445083228f945b25b379e7a",
    1: "dfa1c08afdc412aa03ef99e471187e8d",
}


def _digest(tasks):
    keys = "".join(task_key(task) for task in tasks)
    return hashlib.blake2b(keys.encode(), digest_size=16).hexdigest()


def test_cache_format_unchanged():
    assert CACHE_FORMAT == 7


@pytest.mark.parametrize("name, scale", sorted(TASK_DIGESTS))
def test_task_identity(name, scale):
    experiment = EXPERIMENTS[name]
    tasks = experiment.tasks(getattr(experiment.config_class, scale)())
    assert (len(tasks), _digest(tasks)) == TASK_DIGESTS[name, scale]


def test_every_engine_experiment_has_pinned_tasks():
    submitting = {n for n, e in EXPERIMENTS.items() if e.tasks is not None}
    assert submitting == {name for name, _ in TASK_DIGESTS}
    # ``load`` is analytic plus in-process Monte Carlo: nothing to pin.
    assert set(EXPERIMENTS) - submitting == {"load"}


@pytest.mark.parametrize("seed", sorted(CHAOS_DIGESTS))
def test_chaos_task_identity(seed):
    config = CampaignConfig(runs=20, seed=seed)
    tasks = [generate_task(config, index) for index in range(config.runs)]
    assert _digest(tasks) == CHAOS_DIGESTS[seed]


class _RecordingCache:
    """A run cache that only watches: every lookup misses, nothing is
    stored, and the looked-up keys are what the engine was handed."""

    def __init__(self):
        self.keys = []

    def get(self, task):
        self.keys.append(task_key(task))
        return MISS

    def put(self, task, result):
        pass


@pytest.mark.parametrize(
    "name", ["ablations", "churn", "fault", "latency", "messages", "survival"]
)
def test_tables_submit_exactly_the_declared_tasks(name):
    """``tasks`` is a declaration; what ``tables`` hands the engine must
    be the same list (figure2, tuning, pseudocycles and freshness build
    both from one sweep the same way and are left to the CLI tests)."""
    experiment = EXPERIMENTS[name]
    config = experiment.config(False)
    cache = _RecordingCache()
    produced = experiment.tables(config, jobs=1, cache=cache)
    assert cache.keys == [task_key(task) for task in experiment.tasks(config)]
    assert [stem for stem, _ in produced] == list(experiment.stems)


def test_every_config_module_is_registered():
    registered = {e.config_class for e in EXPERIMENTS.values()}
    defined = set()
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        defined.update(
            value
            for attribute, value in vars(module).items()
            if attribute.endswith("Config")
            and getattr(value, "__module__", None) == module.__name__
        )
    assert defined == registered
    assert len(registered) == len(EXPERIMENTS)


def test_stems_are_unique():
    stems = [stem for e in EXPERIMENTS.values() for stem in e.stems]
    assert len(stems) == len(set(stems)) == 17


def test_all_runs_exactly_the_registry(monkeypatch, capsys, tmp_path):
    ran = []

    def fake_tables(self, config, jobs=None, cache=None):
        ran.append(self)
        return []

    monkeypatch.setattr(type(EXPERIMENTS["load"]), "tables", fake_tables)
    assert cli.main(["all", "--no-cache", "--jobs", "1"]) == 0
    assert ran == list(EXPERIMENTS.values())
    assert set(cli.COMMANDS) == set(EXPERIMENTS) | {"all", "chaos", "serve"}


def describe() -> str:
    """The registry as the markdown table README.md and EXPERIMENTS.md
    carry."""
    lines = [
        "| command | config | output stems | tasks (default / `--full`) |",
        "|---|---|---|---|",
    ]
    for name, experiment in EXPERIMENTS.items():
        sizes = " / ".join(
            "in process" if experiment.tasks is None
            else str(len(experiment.tasks(experiment.config(full))))
            for full in (False, True)
        )
        stems = ", ".join(f"`{stem}`" for stem in experiment.stems)
        lines.append(
            f"| `{name}` | `{experiment.config_class.__name__}` | "
            f"{stems} | {sizes} |"
        )
    return "\n".join(lines)


def test_docs_carry_the_registry_table():
    """README.md, EXPERIMENTS.md and the CLI docstring list commands from
    the registry, not from memory."""
    table = describe()
    for document in ("README.md", "EXPERIMENTS.md"):
        text = (REPO_ROOT / document).read_text(encoding="utf-8")
        assert table in text, f"{document} is out of step with describe()"
    for name in cli.COMMANDS:
        assert name in cli.__doc__


def _cross_backend():
    spec = importlib.util.spec_from_file_location(
        "cross_backend", REPO_ROOT / "tools" / "cross_backend.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@needs_native
def test_cross_backend_comparison_through_the_cli(tmp_path, monkeypatch):
    """CI's python-vs-native comparison, on a shortened list."""
    tool = _cross_backend()
    assert tool.compare(
        [
            "chaos --runs 3 --chaos-seed 1 --jobs 1 --metrics-out {out}",
            "serve --duration 40 --rate 4 --clients 2 --churn 15 --seed 7 "
            "--write-mode two_phase --loss-rate 0.2 --snapshot-out {out}",
            "serve --churn 6.25 --loss-rate 0.1 --duration 40 --seed 7 "
            "--snapshot-out {out}",
        ],
        str(tmp_path),
    ) == []
    # A run that fails is reported per backend, not compared.
    failures = tool.compare(["serve --rate -1 --snapshot-out {out}"], str(tmp_path))
    assert [failure.split(":")[0] for failure in failures] == [
        "exit 2 on python", "exit 2 on native",
    ]
    # So is a run whose stderr reports hung operations, even when both
    # backends write the same artifact.
    run = tool.subprocess.run

    def hung(command, **kwargs):
        proc = run(command, **kwargs)
        proc.stderr += f"repro: warning: 1 {cli.HUNG_OPS_WARNING}\n"
        return proc

    monkeypatch.setattr(tool.subprocess, "run", hung)
    failures = tool.compare(
        ["serve --duration 20 --snapshot-out {out}"], str(tmp_path)
    )
    assert [failure.split(":")[0] for failure in failures] == [
        "hung operations on python", "hung operations on native",
    ]
    # Only that warning counts: other stderr text mentioning "hung" does not.
    def noisy(command, **kwargs):
        proc = run(command, **kwargs)
        proc.stderr += "warning: a hung-up socket was closed\n"
        return proc

    monkeypatch.setattr(tool.subprocess, "run", noisy)
    assert tool.compare(
        ["serve --duration 20 --snapshot-out {out}"], str(tmp_path)
    ) == []
