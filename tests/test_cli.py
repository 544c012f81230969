"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main


def test_parser_accepts_known_experiments():
    parser = build_parser()
    args = parser.parse_args(["survival", "--full"])
    assert args.experiment == "survival"
    assert args.full


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["unknown"])


def test_survival_command_prints_table(capsys):
    assert main(["survival"]) == 0
    out = capsys.readouterr().out
    assert "Theorem 1" in out
    assert "bound_k_frac" in out


def test_freshness_command_prints_table(capsys):
    assert main(["freshness"]) == 0
    out = capsys.readouterr().out
    assert "Theorem 4" in out
    assert "E[Y]" in out


def test_messages_command_prints_three_tables(capsys):
    assert main(["messages"]) == 0
    out = capsys.readouterr().out
    assert "high-availability regime" in out
    assert "optimal-load regime" in out
    assert "measured" in out


def test_output_directory_written(tmp_path, capsys):
    assert main(["survival", "--output", str(tmp_path / "results")]) == 0
    produced = sorted(p.name for p in (tmp_path / "results").iterdir())
    assert produced == ["survival.csv", "survival.txt"]


def test_parser_accepts_jobs_on_every_subcommand():
    from repro.cli import COMMANDS
    parser = build_parser()
    for name in sorted(COMMANDS) + ["all"]:
        args = parser.parse_args([name, "--jobs", "2"])
        assert args.experiment == name
        assert args.jobs == 2


def test_parser_jobs_defaults_to_none():
    args = build_parser().parse_args(["figure2"])
    assert args.jobs is None
    assert not args.no_cache
    assert not args.clear_cache


def test_parser_accepts_cache_flags():
    args = build_parser().parse_args(
        ["survival", "--no-cache", "--clear-cache"]
    )
    assert args.no_cache
    assert args.clear_cache


def test_main_with_explicit_jobs(capsys):
    assert main(["survival", "--jobs", "2", "--no-cache"]) == 0
    assert "Theorem 1" in capsys.readouterr().out


def test_main_respects_repro_jobs_env(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert main(["survival", "--no-cache"]) == 0
    assert "Theorem 1" in capsys.readouterr().out


def test_main_uses_run_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["survival"]) == 0
    cache_dir = tmp_path / "benchmarks" / "output" / ".cache"
    assert cache_dir.is_dir()
    entries = list(cache_dir.rglob("*.json"))
    assert entries
    # --clear-cache wipes it before the (re-)run repopulates it.
    assert main(["survival", "--clear-cache"]) == 0
    capsys.readouterr()


def test_parser_accepts_observability_flags():
    args = build_parser().parse_args(
        ["fault", "--metrics-out", "m.prom", "--trace-spans", "3"]
    )
    assert args.metrics_out == "m.prom"
    assert args.trace_spans == 3
    defaults = build_parser().parse_args(["fault"])
    assert defaults.metrics_out is None
    assert defaults.trace_spans is None


def test_metrics_out_writes_valid_prometheus_text(tmp_path, capsys):
    from repro.obs.export import validate_prometheus_text

    path = tmp_path / "metrics.prom"
    assert main(
        ["fault", "--jobs", "2", "--no-cache", "--metrics-out", str(path)]
    ) == 0
    assert f"metrics written to {path}" in capsys.readouterr().out
    parsed = validate_prometheus_text(path.read_text(encoding="utf-8"))
    assert parsed["repro_messages_sent_total"]["type"] == "counter"
    assert parsed["repro_messages_sent_total"]["samples"][0][1] > 0
    assert parsed["repro_alg1_runs_total"]["samples"][0][1] > 1
    assert parsed["repro_op_latency"]["type"] == "histogram"


def test_metrics_out_json_variant(tmp_path, capsys):
    import json

    path = tmp_path / "metrics.json"
    assert main(["fault", "--no-cache", "--metrics-out", str(path)]) == 0
    capsys.readouterr()
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    names = [i["name"] for i in snapshot["instruments"]]
    assert "repro_messages_sent_total" in names


def test_trace_spans_prints_slowest_operations(capsys):
    assert main(["fault", "--trace-spans", "3"]) == 0
    out = capsys.readouterr().out
    assert "slowest 3 of" in out
    assert "quorum_round" in out


def test_trace_spans_rejects_non_positive(capsys):
    assert main(["fault", "--trace-spans", "0"]) == 2
    assert "--trace-spans must be positive" in capsys.readouterr().err


def test_full_and_repro_full_select_the_same_configuration(monkeypatch):
    """``--full`` and the benchmarks' ``REPRO_FULL=1`` both resolve to the
    config's own ``paper_scale()`` through the one registry — the two used
    to carry separate literals, and the churn and load pairs had drifted
    apart."""
    from repro.experiments import EXPERIMENTS

    assert len(EXPERIMENTS) == 11
    for experiment in EXPERIMENTS.values():
        config_class = experiment.config_class
        monkeypatch.setenv("REPRO_FULL", "1")
        assert (
            experiment.config()
            == experiment.config(True)
            == config_class.paper_scale()
        )
        monkeypatch.setenv("REPRO_FULL", "0")
        assert (
            experiment.config()
            == experiment.config(False)
            == config_class.scaled_down()
        )
    churn = EXPERIMENTS["churn"]
    assert churn.config(True).num_vertices == 16
    assert EXPERIMENTS["load"].config(True).tradeoff_n_values[-1] == 144
    # The fault-model flags reach exactly the experiments declaring them.
    assert churn.config(False, loss_rate=0.1, op_deadline=None) == (
        dataclasses.replace(churn.config(False), loss_rate=0.1)
    )
    figure2 = EXPERIMENTS["figure2"]
    assert figure2.config(False, loss_rate=0.1) == figure2.config(False)


#: Every option string of the parser at the commit before the command
#: table (PR 21): regrouping the flags per command must not add, drop or
#: rename one.
OPTION_STRINGS = {
    "--amplitude", "--arrivals", "--broken-after", "--chaos-seed", "--churn",
    "--churn-batch", "--clear-cache", "--clients", "--duration", "--full",
    "--help", "--jobs", "--kernel", "--keys", "--loss-rate",
    "--max-attempts", "--max-in-flight", "--mean-burst", "--metrics-out",
    "--no-cache", "--op-deadline", "--output", "--peakedness", "--period",
    "--profile", "--quorum-size", "--rate", "--read-fraction", "--registers",
    "--repro", "--repro-out", "--runs", "--seed", "--servers",
    "--snapshot-out", "--trace-spans", "--write-mode", "--zipf", "-h",
}


def test_parser_option_strings_unchanged():
    options = [
        option
        for action in build_parser()._actions
        for option in action.option_strings
    ]
    assert len(options) == len(set(options))
    assert set(options) == OPTION_STRINGS


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--servers", "4", "--quorum-size", "9"],
        ["serve", "--rate", "-1"],
        ["serve", "--churn", "5", "--churn-batch", "99"],
        ["chaos", "--runs", "0"],
        ["chaos", "--repro", "missing.json"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_configuration_is_a_one_line_error(argv, capsys, tmp_path, monkeypatch):
    """A command that cannot build its configuration reports like a bad
    ``--loss-rate`` does: exit 2, one ``repro: error:`` line, no stack."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
