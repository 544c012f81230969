"""Tests for chaos campaigns: randomized runs, shrinking, replay, CLI."""

import json

import pytest

from repro.chaos import CampaignConfig, run_campaign, shrink_violation
from repro.chaos.campaign import (
    generate_task,
    load_repro,
    repro_to_bytes,
    write_repro,
)
from repro.cli import main
from repro.exec.task import RunTask, execute_task
from repro.exec.workers import alg1_task, run_alg1_task
from repro.iterative.runner import Alg1Runner

BROKEN = {"kind": "regressing", "after": 2}


def broken_config(**overrides):
    defaults = dict(
        runs=4, seed=7, jobs=1, broken_client=BROKEN, shrink_budget=60
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture(scope="module")
def broken_result():
    """One shrunken violating campaign, shared by the read-only tests."""
    return run_campaign(broken_config())


class TestConfig:
    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(runs=0)

    def test_generate_task_is_pure(self):
        config = broken_config()
        first = generate_task(config, 2)
        second = generate_task(config, 2)
        assert first.params == second.params
        assert first.seed == second.seed
        # Different indices draw different configurations.
        assert generate_task(config, 3).params != first.params


class TestCleanCampaign:
    def test_randomized_runs_pass_spec_online(self):
        # The robustness acceptance claim: randomized faults, loss and
        # adversaries, with the online monitor armed — and no violations,
        # no hung ops, on every run.
        result = run_campaign(CampaignConfig(runs=6, seed=0, jobs=1))
        assert result.failed == 0
        assert result.passed == 6
        assert result.repro is None
        assert all(rec["hung_ops"] == 0 for rec in result.records)
        # The campaign exercised real degradation, not a quiet network.
        assert sum(rec["retries"] for rec in result.records) > 0
        assert_tally_is_record_sums(result)

    def test_membership_timelines_stay_clean_across_view_boundaries(self):
        # Campaign seed chosen so several runs draw join/leave schedules
        # (often racing a view_change_racer adversary) on 2 workers;
        # every run stays spec-clean with zero hung operations.
        result = run_campaign(CampaignConfig(runs=10, seed=2, jobs=2))
        assert result.failed == 0, result.violations
        churned = [r for r in result.records if r.get("views_installed")]
        assert churned, "no campaign run drew a membership timeline"
        assert all(r["hung_ops"] == 0 for r in result.records)


def assert_tally_is_record_sums(result):
    assert result.degradation == {
        kind: sum(record[kind] for record in result.records)
        for kind in ("retries", "timeouts", "messages_dropped", "hung_ops")
    }


#: A monitored run without retries converges and halts with the
#: processes' reads still in flight: cut off on purpose, not hung.
UNSETTLED = alg1_task(
    (2, "unsettled"),
    graph={"kind": "chain", "n": 5},
    quorum={"kind": "probabilistic", "n": 6, "k": 2},
    delay={"kind": "exponential", "mean": 1.0},
    monotone=True,
    max_rounds=30,
    check_spec_online=True,
)

#: The same run under loss: a dropped message with no retry policy leaves
#: its op pending until the scheduler drains, and finalize fails the
#: liveness check.
HANGS = alg1_task(
    (2, "hangs"),
    graph={"kind": "chain", "n": 5},
    quorum={"kind": "probabilistic", "n": 6, "k": 2},
    delay={"kind": "exponential", "mean": 1.0},
    monotone=True,
    max_rounds=30,
    check_spec_online=True,
    loss_rate=0.2,
)


def test_a_run_halted_with_reads_in_flight_is_not_hung(kernel_backend):
    payload = run_alg1_task(UNSETTLED)
    assert payload["spec_violation"] is None
    assert payload["converged"]
    assert payload["hung_ops"] == 0  # cut off by the halt, events queued


def test_an_op_pending_at_quiescence_is_hung(kernel_backend):
    payload = run_alg1_task(HANGS)
    assert payload["spec_violation"]["condition"] == "liveness"
    assert not payload["converged"]
    assert payload["hung_ops"] > 0


class TestAlg1Payload:
    """The payload's counts are the runner's one ``Alg1Result``."""

    @pytest.mark.parametrize("task, condition", [
        (generate_task(CampaignConfig(runs=1, seed=0), 0), None),
        (generate_task(broken_config(), 0), "R4"),
        (HANGS, "liveness"),
    ], ids=["clean", "aborted", "aborted-at-finalize"])
    def test_counts_are_the_result_fields(
        self, kernel_backend, monkeypatch, task, condition
    ):
        seen = []
        result = Alg1Runner.result

        def recording(runner):
            # The counts as the deployment and tracker hold them, read
            # at the moment the record is built.
            deployment = runner.deployment
            record = result(runner)
            seen.append((record, {
                "total_iterations": runner.tracker.total_iterations,
                "sim_time": deployment.scheduler.now,
                "messages": deployment.network.stats.sent,
                "regressions": runner.monitor.regressions,
                "cache_hits": sum(c.cache_hits for c in deployment.clients),
                "retries": deployment.total_retries,
                "timeouts": deployment.total_timeouts,
                "messages_dropped": deployment.network.stats.dropped,
                "ops_under_failure": deployment.total_ops_under_failure,
                "rounds_completed": runner.tracker.rounds_completed,
            }))
            return record

        monkeypatch.setattr(Alg1Runner, "result", recording)
        payload = run_alg1_task(task)
        assert (payload["spec_violation"] or {}).get("condition") == condition
        (record, state), = seen
        counts = {
            key: getattr(record, key)
            for key in (
                "converged", "rounds", "total_iterations", "sim_time",
                "messages", "regressions", "cache_hits", "retries",
                "timeouts", "messages_dropped", "ops_under_failure",
            )
        }
        assert list(payload)[:11] == list(counts)
        assert {key: payload[key] for key in counts} == counts
        for key, value in state.items():
            assert getattr(record, key) == value, key
        assert record.messages > 0
        if condition is not None:
            # An aborted run is not converged and counts no partial round.
            assert not record.converged
            assert record.rounds == record.rounds_completed
        else:
            assert record.converged


class TestViolationPipeline:
    def test_broken_client_caught_and_shrunk(self, broken_result):
        assert broken_result.failed >= 1
        index, violation = broken_result.violations[0]
        assert violation["condition"] == "R4"
        assert violation["ops"]
        repro = broken_result.repro
        assert repro["format"] == 1
        assert repro["campaign_seed"] == 7
        assert repro["run_index"] == index
        assert repro["shrink"]["reductions"]
        assert repro["violation"]["condition"] == "R4"
        assert_tally_is_record_sums(broken_result)

    def test_shrinking_is_deterministic_byte_identical(self, broken_result):
        again = run_campaign(broken_config())
        assert repro_to_bytes(again.repro) == repro_to_bytes(
            broken_result.repro
        )

    def test_minimal_task_still_violates(self, broken_result):
        spec = broken_result.repro["task"]
        payload = execute_task(
            RunTask(kind=spec["kind"], params=spec["params"],
                    seed=spec["seed"])
        )
        assert payload["spec_violation"] is not None

    def test_replay_from_file_reproduces(self, broken_result, tmp_path):
        path = write_repro(broken_result.repro, tmp_path / "repro.json")
        payload = execute_task(load_repro(path))
        assert (
            payload["spec_violation"]["condition"]
            == broken_result.repro["violation"]["condition"]
        )

    def test_repro_file_is_plain_sorted_json(self, broken_result, tmp_path):
        path = write_repro(broken_result.repro, tmp_path / "repro.json")
        text = path.read_text()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc == broken_result.repro


class TestShrink:
    def test_passing_task_rejected(self):
        config = CampaignConfig(runs=1, seed=0)
        with pytest.raises(ValueError, match="passed"):
            shrink_violation(generate_task(config, 0))

    def test_reductions_reported_with_budget_accounting(self, broken_result):
        shrink = broken_result.repro["shrink"]
        assert 1 <= shrink["candidate_runs"] <= 60
        # The broken client violates regardless of faults/adversary, so
        # shrinking must strip the noise down to the essentials.
        params = broken_result.repro["task"]["params"]
        assert "adversary" not in params
        assert "faults" not in params
        assert params["max_rounds"] <= 5


class TestReplayErrors:
    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            load_repro({"format": 1})

    def test_inline_document_accepted(self, broken_result):
        payload = execute_task(load_repro(broken_result.repro))
        assert payload["spec_violation"] is not None


class TestCLI:
    def test_campaign_violation_exit_code_and_repro_file(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "repro.json"
        code = main([
            "chaos", "--runs", "4", "--chaos-seed", "7", "--jobs", "1",
            "--broken-after", "2", "--repro-out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert out_path.is_file()
        assert "violation" in out
        assert "--repro" in out  # prints the one-line replay command

    def test_replay_mode_exit_zero_on_reproduction(self, tmp_path, capsys):
        result = run_campaign(broken_config())
        path = write_repro(result.repro, tmp_path / "repro.json")
        code = main(["chaos", "--repro", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced" in out

    def test_replay_mode_exit_two_when_not_reproduced(
        self, tmp_path, capsys
    ):
        # A clean task masquerading as a repro: replay must report
        # non-reproduction via exit code 2.
        config = CampaignConfig(runs=1, seed=0)
        doc = {
            "format": 1,
            "task": generate_task(config, 0).descriptor(),
            "violation": {"condition": "R4"},
        }
        path = write_repro(doc, tmp_path / "repro.json")
        assert main(["chaos", "--repro", str(path)]) == 2

    def test_clean_campaign_exit_zero(self, capsys):
        code = main([
            "chaos", "--runs", "3", "--chaos-seed", "0", "--jobs", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "passed 3/3" in out
