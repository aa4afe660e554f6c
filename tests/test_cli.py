"""CLI harness tests: config parsing and precedence, metric-file
determinism and round-trips, summaries, and comparisons."""

import dataclasses
import json
import os
import re
import warnings

import numpy as np
import pytest

from fedguide import cli
from fedguide.cli import (
    ExperimentConfig,
    compare_runs,
    format_comparison,
    format_metrics_csv,
    main,
    parse_config,
    run_experiment,
)
from fedguide.errors import ConfigError
from fedguide.federation import RunConfig, TaskConfig

from helpers import read_metrics_csv

TINY = [
    "--clients", "6", "--rounds", "5", "--warmup", "1", "--quiz-size", "5",
    "--class-count", "6", "--input-dim", "8", "--samples-per-class", "60",
    "--cluster-spread", "0.6", "--partition", "dirichlet:1.0", "--feature-dim", "8",
]


def test_parse_config_defaults():
    cfg = parse_config([])
    assert cfg.run == RunConfig()
    assert cfg.run.task == TaskConfig()
    assert cfg.run.task.source == "synthetic"
    assert cfg.seeds == (1,)
    assert cfg.run.eta_c == 0.01
    assert cfg.run.batch_size == 10
    assert cfg.run.warmup == 50
    assert cfg.run.quiz_size == 10


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="rho"):
        parse_config(["--rho", "0"])
    with pytest.raises(ConfigError, match="partition"):
        parse_config(["--partition", "zipf:2"])
    with pytest.raises(ConfigError, match="noise"):
        parse_config(["--noise", "abc"])


def test_parse_config_method_sets_space_dimension():
    cfg = parse_config(["--method", "fedl2g-f", "--feature-dim", "24"])
    assert cfg.run.space == "feature"
    assert cfg.run.vector_dim == 24
    cfg = parse_config(["--method", "fedl2g-l"])
    assert cfg.run.space == "logit"
    assert cfg.run.vector_dim == cfg.run.task.class_count


def test_parse_config_file_flags_env_precedence(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rounds": 7, "method": "fedproto", "rho": 0.5, "warmup": 0}))
    monkeypatch.setenv("FEDGUIDE_RHO", "0.25")
    cfg = parse_config(["--config", str(path), "--rounds", "9"])
    assert cfg.run.rounds == 9  # flag beats file
    assert cfg.run.method == "fedproto"  # file beats default
    assert cfg.run.rho == 0.25  # env beats file


def test_parse_config_unknown_file_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lerning_rate": 0.1}))
    with pytest.raises(ConfigError, match="lerning_rate"):
        parse_config(["--config", str(path)])


def test_parse_config_seed_list_and_noise():
    cfg = parse_config(["--seed", "1,2,3", "--noise", "0.05:0.2"])
    assert cfg.seeds == (1, 2, 3)
    assert cfg.run.noise_s == 0.05
    assert cfg.run.noise_p == 0.2


def test_repeated_seed_gives_byte_identical_metric_files(tmp_path):
    cfg = parse_config(TINY + ["--method", "local-only", "--seed", "2,2", "--out", str(tmp_path)])
    summary = run_experiment(cfg)
    paths = [os.path.join(str(tmp_path), n) for n in summary["metric_files"]]
    assert len(paths) == 2 and paths[0] != paths[1]
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_local_only_metric_files_zero_bytes(tmp_path):
    cfg = parse_config(TINY + ["--method", "local-only", "--seed", "1", "--out", str(tmp_path)])
    summary = run_experiment(cfg)
    cols = read_metrics_csv(os.path.join(str(tmp_path), summary["metric_files"][0]))
    assert (cols["upload_bytes"] == 0).all()
    assert (cols["download_bytes"] == 0).all()


def test_metric_files_roundtrip_and_header(tmp_path):
    cfg = parse_config(TINY + ["--method", "fedl2g-l", "--seed", "4", "--out", str(tmp_path)])
    summary = run_experiment(cfg)
    path = os.path.join(str(tmp_path), summary["metric_files"][0])
    cols = read_metrics_csv(path)
    assert cols["round"].tolist() == [1, 2, 3, 4, 5]
    # shortest-roundtrip float formatting survives a parse-and-format cycle
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    assert original.startswith("round,accuracy,")
    assert (cols["accuracy"] >= 0).all() and (cols["accuracy"] <= 1).all()


def test_failed_output_writes_keep_the_previous_files(tmp_path, monkeypatch):
    cfg = parse_config(TINY + ["--method", "local-only", "--seed", "1", "--out", str(tmp_path)])
    run_experiment(cfg)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["metrics_local-only_run00_seed1.csv", "summary_local-only.json"]

    def partial_dump(obj, fh, **kwargs):
        fh.write('{"schema": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.json, "dump", partial_dump)
    with pytest.raises(OSError, match="no space left"):
        run_experiment(cfg)
    # a metric table that cannot be encoded fails inside the write itself
    monkeypatch.setattr(cli, "format_metrics_csv", lambda history: "round\n1\ud800\n")
    with pytest.raises(UnicodeEncodeError):
        run_experiment(cfg)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_summary_statistics_over_seeds(tmp_path):
    cfg = parse_config(TINY + ["--method", "local-only", "--seed", "1,2", "--out", str(tmp_path)])
    summary = run_experiment(cfg)
    assert summary["schema"] == "fedguide-summary-v1"
    assert len(summary["final_accuracy"]) == 2
    assert summary["final_accuracy_mean"] == pytest.approx(
        float(np.mean(summary["final_accuracy"]))
    )
    assert summary["final_accuracy_std"] == pytest.approx(
        float(np.std(summary["final_accuracy"]))
    )


def test_compare_runs_identical_summaries_identical_rows(tmp_path):
    cfg = parse_config(TINY + ["--method", "local-only", "--seed", "1", "--out", str(tmp_path)])
    s = run_experiment(cfg)
    rows = compare_runs([s, json.loads(json.dumps(s))])
    assert rows[0] == rows[1]


def test_compare_runs_orders_by_accuracy_and_rejects_mismatch(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    sa = run_experiment(parse_config(TINY + ["--method", "local-only", "--seed", "1", "--out", out_a]))
    sb = run_experiment(parse_config(TINY + ["--method", "fedproto", "--seed", "1", "--out", out_b]))
    rows = compare_runs([sa, sb])
    assert rows[0]["accuracy_mean"] >= rows[1]["accuracy_mean"]
    text = format_comparison(rows)
    assert rows[0]["method"] in text.splitlines()[2]
    # different task -> error
    sc = run_experiment(
        parse_config(
            TINY[:-2] + ["--feature-dim", "8", "--cluster-spread", "0.7",
                         "--method", "local-only", "--seed", "1", "--out", str(tmp_path / "c")]
        )
    )
    with pytest.raises(ConfigError, match="different tasks"):
        compare_runs([sa, sc])


def test_main_run_and_compare_end_to_end(tmp_path, capsys):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    assert main(["run", *TINY, "--method", "local-only", "--seed", "1", "--out", out1]) == 0
    assert main(["run", *TINY, "--method", "feddistill", "--seed", "1", "--out", out2]) == 0
    s1 = os.path.join(out1, "summary_local-only.json")
    s2 = os.path.join(out2, "summary_feddistill.json")
    cmp_out = str(tmp_path / "cmp")
    assert main(["compare", s1, s2, "--out", cmp_out]) == 0
    assert os.path.exists(os.path.join(cmp_out, "comparison.json"))
    assert os.path.exists(os.path.join(cmp_out, "comparison.txt"))
    captured = capsys.readouterr()
    assert "method" in captured.out


def test_main_unknown_command_and_bad_flags(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    assert main(["run", "--rho", "0", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err


def test_format_metrics_csv_is_deterministic():
    from fedguide.metrics import RoundMetrics

    m = RoundMetrics(1, 0.5, np.array([0.5]), 1.25, 0.0, 10, 20, 0.125, 1, 2, 99.0)
    assert format_metrics_csv([m]) == format_metrics_csv([m])
    line = format_metrics_csv([m]).splitlines()[1]
    assert line == "1,0.5,1.25,0.0,10,20,0.125"


# Every run option: (key, raw value, the RunConfig/TaskConfig fields it sets).
# Together the entries set every field of both configs except ``seed`` and
# ``task``; ``seed`` and ``out`` feed the ExperimentConfig instead.
OPTION_CASES = [
    ("method", "fedproto", {"method": "fedproto"}),
    ("clients", "10", {"n_clients": 10}),
    ("rho", "0.5", {"rho": 0.5}),
    ("rounds", "100", {"rounds": 100}),
    ("warmup", "10", {"warmup": 10}),
    ("eta_c", "0.05", {"eta_c": 0.05}),
    ("eta_s", "0.5", {"eta_s": 0.5}),
    ("eta_s_scale", "0.25", {"eta_s_scale": 0.25}),
    ("batch_size", "20", {"batch_size": 20}),
    ("quiz_size", "5", {"quiz_size": 5}),
    ("feature_dim", "16", {"feature_dim": 16}),
    ("activation", "tanh", {"activation": "tanh"}),
    ("workers", "3", {"workers": 3}),
    ("eval_every", "5", {"eval_every": 5}),
    ("partition", "dirichlet:0.5", {"task.partition": "dirichlet", "task.beta": 0.5}),
    ("partition", "pathological:3",
     {"task.partition": "pathological", "task.classes_per_client": 3}),
    ("noise", "0.05:0.2", {"noise_s": 0.05, "noise_p": 0.2}),
    ("data", "points.csv", {"task.source": "points.csv"}),
    ("class_count", "5", {"task.class_count": 5}),
    ("input_dim", "16", {"task.input_dim": 16}),
    ("samples_per_class", "100", {"task.samples_per_class": 100}),
    ("cluster_spread", "0.5", {"task.cluster_spread": 0.5}),
    ("test_fraction", "0.3", {"task.test_fraction": 0.3}),
]


def _json_value(raw: str):
    """A raw option value as a config file would hold it."""
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    return raw


def _option_argv(options: dict) -> list[str]:
    return [arg for key, raw in options.items() for arg in ("--" + key.replace("_", "-"), raw)]


def _parse_from(source: str, options: dict, tmp_path, monkeypatch):
    """parse_config with ``options`` given only as flags, env vars or a file."""
    if source == "flag":
        return parse_config(_option_argv(options))
    if source == "env":
        for key, raw in options.items():
            monkeypatch.setenv("FEDGUIDE_" + key.upper(), raw)
        return parse_config([])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: _json_value(raw) for key, raw in options.items()}))
    return parse_config(["--config", str(path)])


def _field(run: RunConfig, name: str):
    obj = run
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def test_option_cases_cover_every_config_field():
    covered = {name for _, _, fields in OPTION_CASES for name in fields}
    expected = {f.name for f in dataclasses.fields(RunConfig)} - {"seed", "task"}
    expected |= {"task." + f.name for f in dataclasses.fields(TaskConfig)}
    assert covered == expected


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("key,raw,fields", OPTION_CASES)
def test_every_option_sets_its_field_from_each_source(
    source, key, raw, fields, tmp_path, monkeypatch
):
    cfg = _parse_from(source, {key: raw}, tmp_path, monkeypatch)
    for name, value in fields.items():
        if name != "task.partition":  # dirichlet is also the default
            assert _field(RunConfig(), name) != value
        assert _field(cfg.run, name) == value


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_seed_and_out_options_from_each_source(source, tmp_path, monkeypatch):
    cfg = _parse_from(source, {"seed": "4,5", "out": "elsewhere"}, tmp_path, monkeypatch)
    assert cfg.seeds == (4, 5)
    assert cfg.out_dir == "elsewhere"


@pytest.mark.parametrize("method", ["fedl2g-l", "fedl2g-f", "fedproto", "feddistill", "local-only"])
def test_flags_env_and_file_write_identical_outputs(method, tmp_path, monkeypatch):
    options = dict(zip(TINY[::2], TINY[1::2]))
    options = {flag[2:].replace("-", "_"): raw for flag, raw in options.items()}
    options.update(method=method, seed="1,2", noise="0.05:0.2", eval_every="2")
    outputs = {}
    for source in ("flag", "env", "file"):
        with monkeypatch.context() as mp:
            out = tmp_path / source
            cfg = _parse_from(source, {**options, "out": str(out)}, tmp_path, mp)
            run_experiment(cfg)
        outputs[source] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(outputs["flag"]) == 3
    assert outputs["flag"] == outputs["env"] == outputs["file"]


def test_run_help_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for key in {key for key, _, _ in OPTION_CASES} | {"config", "seed", "out"}:
        assert "--" + key.replace("_", "-") in text


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_bad_activation_rejected_before_any_output(source, tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="activation"):
        _parse_from(source, {"activation": "sigmoid"}, tmp_path, monkeypatch)
    out = tmp_path / "out"
    argv = {"flag": _option_argv({"activation": "sigmoid"}), "env": [],
            "file": ["--config", str(tmp_path / "cfg.json")]}[source]
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert not out.exists()


def test_successful_run_removes_a_stale_failure_marker(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,x,1\n")
    out = tmp_path / "out"
    run = ["run", *TINY, "--method", "local-only", "--out", str(out)]
    assert main([*run, "--input-dim", "2", "--data", str(bad)]) == 1
    assert (out / "FAILED.txt").exists()
    assert main(run) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics_local-only_run00_seed1.csv", "summary_local-only.json"
    ]


def test_compare_bad_input_is_a_config_error_naming_the_path(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", *TINY, "--method", "local-only", "--out", str(out)]) == 0
    good = str(out / "summary_local-only.json")
    not_json = tmp_path / "not.json"
    not_json.write_text("round,accuracy\n")
    partial = tmp_path / "partial.json"
    summary = json.loads(open(good, encoding="utf-8").read())
    del summary["final_accuracy_std"]
    partial.write_text(json.dumps(summary))
    capsys.readouterr()
    for path, why in [(tmp_path / "missing.json", "cannot read"),
                      (not_json, "not valid JSON"),
                      (partial, "final_accuracy_std")]:
        assert main(["compare", good, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: compare: ")
        assert str(path) in err and why in err


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize(
    "key,value", [("clients", 2.7), ("rounds", True), ("warmup", 3.0), ("quiz_size", "ten")]
)
def test_integer_options_reject_fractions_and_booleans(source, key, value, tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match=f"{key}: cannot parse"):
        parse_config(_json_option_argv(source, key, value, tmp_path, monkeypatch))


def _json_option_argv(source, key, value, tmp_path, monkeypatch):
    """parse_config's argv giving one option a JSON value from ``source``.
    Flags and environment variables carry the text a config file's JSON
    value would be written as: 2.7, true, 3.0."""
    text = value if isinstance(value, str) else json.dumps(value)
    if source == "file":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        return ["--config", str(path)]
    if source == "env":
        monkeypatch.setenv("FEDGUIDE_" + key.upper(), text)
        return []
    return _option_argv({key: text})


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize(
    "key,value,message,data_file",
    [
        ("rho", True, "^rho: cannot parse", False),
        ("eta_c", True, "^eta_c: cannot parse", False),
        ("feature_dim", 0, "^feature_dim: must be >= 1$", False),
        ("input_dim", 0, "^input_dim: must be >= 1$", False),
        ("class_count", 0, "^class_count: must be >= 1$", False),
        ("input_dim", 0, "^input_dim: must be >= 1$", True),
    ],
    ids=["rho-true", "eta_c-true", "feature_dim-0", "input_dim-0", "class_count-0",
         "input_dim-0-data"],
)
def test_bad_option_values_rejected_before_any_output(
    source, key, value, message, data_file, tmp_path, monkeypatch, capsys
):
    argv = _json_option_argv(source, key, value, tmp_path, monkeypatch)
    if data_file:  # the check holds for a file source too, not only the synthetic pool
        path = tmp_path / "rows.csv"
        path.write_text("0.5,0\n", encoding="utf-8")
        argv += ["--data", str(path)]
    with pytest.raises(ConfigError, match=message):
        parse_config(argv)
    out = tmp_path / "out"
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--partition", "pathological:11"], "must be <= class_count = 10, got 11"),
        (["--partition", "pathological:1", "--clients", "5"], "= 5 is below class_count = 10"),
    ],
    ids=["more-than-class-count", "too-few-to-cover"],
)
def test_infeasible_pathological_partition_rejected_before_any_output(
    argv, message, tmp_path, capsys
):
    argv = [*argv, "--rounds", "3", "--warmup", "1"]
    with pytest.raises(ConfigError, match=f"^classes_per_client: .*{re.escape(message)}"):
        parse_config(argv)
    out = tmp_path / "out"
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: classes_per_client: ")


def test_unreadable_data_file_fails_the_run_with_a_marker(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    out = tmp_path / "out"
    argv = ["run", *TINY, "--method", "local-only", "--data", str(missing), "--out", str(out)]
    assert main(argv) == 1
    assert str(missing) in (out / "FAILED.txt").read_text()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("seeds", ["-1", "1,-2"])
def test_negative_seed_rejected_before_any_output(source, seeds, tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError, match="^seed: must be >= 0"):
        _parse_from(source, {"seed": seeds}, tmp_path, monkeypatch)
    out = tmp_path / "out"
    argv = {"flag": ["--seed=" + seeds], "env": [],
            "file": ["--config", str(tmp_path / "cfg.json")]}[source]
    run = ["run", *argv, "--rounds", "3", "--warmup", "1", "--clients", "4", "--out", str(out)]
    assert main(run) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: seed: ")
    with pytest.raises(ConfigError, match="^seed: "):
        RunConfig(seed=-1).validate()


# Float options whose range checks a nan passes: (key, raw value with {} for
# the non-finite number, the field named in the error).
NON_FINITE_CASES = [
    ("eta_c", "{}", "eta_c"),
    ("eta_s", "{}", "eta_s"),
    ("eta_s_scale", "{}", "eta_s_scale"),
    ("noise", "{}:0.2", "noise_s"),
    ("partition", "dirichlet:{}", "beta"),
    ("cluster_spread", "{}", "cluster_spread"),
]


@pytest.mark.parametrize("source", ["flag", "env", "file"])
@pytest.mark.parametrize("number", ["nan", "inf"])
@pytest.mark.parametrize("key,raw,field", NON_FINITE_CASES)
def test_non_finite_float_options_are_rejected(
    source, number, key, raw, field, tmp_path, monkeypatch
):
    with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
        _parse_from(source, {key: raw.format(number)}, tmp_path, monkeypatch)


def test_a_diverging_run_stops_at_its_first_overflow_with_a_marker(tmp_path, capsys):
    # fedl2g-f at seed 1 with a 30x feature-space server step: the guiding
    # vectors grow until four clients' matmuls overflow in round 54, in the
    # local epoch that steps their parameters
    out = tmp_path / "out"
    argv = ["run", "--method", "fedl2g-f", "--seed", "1", "--eta-s-scale", "30", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    expected = (
        "clients 0, 5, 10, 15 failed in round 54 computing their parameters (local epoch): "
        "overflow encountered in matmul"
    )
    assert expected in (out / "FAILED.txt").read_text()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
