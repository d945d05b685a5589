import argparse
import json

import pytest

from rtgmi import cli
from rtgmi.capacity import CapacityEstimate
from rtgmi.cli import (SCHEMAS, _flag_values, _parse_bool,
                       _parse_constellation, _parse_grid, build_model,
                       build_parser, db_to_linear, main, merge_parameters,
                       read_config_file)
from rtgmi.errors import ConfigurationError
from rtgmi.fading import Ar1Fading, ClarkeFading


def test_db_conversion():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(3.0) == pytest.approx(1.9952623, rel=1e-6)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-12)


def test_parse_grid():
    assert _parse_grid("0:2:10") == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert _parse_grid("1:0.5:2") == [1.0, 1.5, 2.0]
    assert _parse_grid("5:1:5") == [5.0]
    for bad in ("1:2", "a:b:c", "0:-1:10", "10:1:0"):
        with pytest.raises(ConfigurationError):
            _parse_grid(bad)


def test_parse_constellation():
    assert _parse_constellation("qpsk") == 4
    assert _parse_constellation("BPSK") == 2
    assert _parse_constellation("8psk") == 8
    assert _parse_constellation("16") == 16
    with pytest.raises(ConfigurationError):
        _parse_constellation("1")
    with pytest.raises(ConfigurationError):
        _parse_constellation("qam64")


def test_parse_bool():
    assert _parse_bool("yes") and _parse_bool("1") and _parse_bool("On")
    assert not _parse_bool("off") and not _parse_bool("0")
    with pytest.raises(ConfigurationError):
        _parse_bool("maybe")


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nconstellation = qpsk\nsnr_db=0  # inline\n\n")
    assert read_config_file(str(cfg)) == {"constellation": "qpsk",
                                          "snr_db": "0"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("constellation qpsk\n")
    with pytest.raises(ConfigurationError, match="bad.cfg:1"):
        read_config_file(str(bad))
    with pytest.raises(ConfigurationError):
        read_config_file(str(tmp_path / "absent.cfg"))


def test_merge_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="bogus"):
        merge_parameters("capacity", {"bogus": "3"}, {})


def test_merge_flags_override_file():
    params = merge_parameters(
        "capacity", {"constellation": "bpsk", "snr_db": "0"},
        {"snr_db": 10.0})
    assert params["snr_db"] == 10.0
    assert params["constellation"] == 2
    assert params["samples"] > 0  # default filled in


def test_merge_missing_required():
    with pytest.raises(ConfigurationError, match="constellation"):
        merge_parameters("capacity", {"snr_db": "0"}, {})
    with pytest.raises(ConfigurationError, match="model"):
        merge_parameters("gmi", {"constellation": "bpsk", "snr_db": "0"}, {})


def test_build_model_contracts():
    m = build_model({"model": "ar1", "alpha": 0.9, "doppler": None,
                     "table": None})
    assert isinstance(m, Ar1Fading)
    m = build_model({"model": "clarke", "doppler": 0.05, "alpha": None,
                     "table": None})
    assert isinstance(m, ClarkeFading)
    with pytest.raises(ConfigurationError, match="alpha"):
        build_model({"model": "ar1", "alpha": None, "doppler": None,
                     "table": None})
    with pytest.raises(ConfigurationError, match="doppler"):
        build_model({"model": "ar1", "alpha": 0.9, "doppler": 0.1,
                     "table": None})
    with pytest.raises(ConfigurationError):
        build_model({"model": "rician", "alpha": None, "doppler": None,
                     "table": None})


def test_missing_constellation_exits_2(tmp_path, capsys):
    code = main(["capacity", "--snr-db", "0",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "constellation" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("constellation=bpsk\nsnr_db=0\nbogus=1\n")
    code = main(["capacity", "--config", str(cfg),
                 "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "bogus" in err


def test_capacity_runs_and_is_byte_identical(tmp_path, capsys):
    args = ["capacity", "--constellation", "qpsk", "--snr-db", "0",
            "--samples", "50000", "--seed", "7"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--output-dir", str(d1)]) == 0
    assert main(args + ["--output-dir", str(d2)]) == 0
    out = capsys.readouterr().out
    assert out.count("capacity:") == 2
    assert "bits/symbol" in out
    r1 = (d1 / "report.json").read_bytes()
    r2 = (d2 / "report.json").read_bytes()
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["schema_version"] == 1
    assert payload["rho_linear"] == 1.0
    csv_lines = (d1 / "capacity.csv").read_text().splitlines()
    assert csv_lines[0] == "snr_db,rho_linear,capacity_nats,capacity_bits,ci_nats"


def test_capacity_quadrature_flag(tmp_path, capsys):
    assert main(["capacity", "--constellation", "bpsk", "--snr-db", "0",
                 "--samples", "50000", "--quadrature",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "report.json").read_text())
    sigma = payload["ci_nats"] / 1.96
    assert abs(payload["capacity_nats"] - payload["quadrature_nats"]) <= 4 * sigma


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("constellation=bpsk\nsnr_db=0\nsamples=20000\n")
    assert main(["capacity", "--config", str(cfg), "--snr-db", "10",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["snr_db"] == 10.0
    assert payload["rho_linear"] == 10.0


def test_format_selects_outputs(tmp_path, capsys):
    base = ["capacity", "--constellation", "bpsk", "--snr-db", "0",
            "--samples", "5000"]
    d1, d2 = tmp_path / "json_only", tmp_path / "csv_only"
    assert main(base + ["--format", "json", "--output-dir", str(d1)]) == 0
    assert main(base + ["--format", "csv", "--output-dir", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "report.json").exists()
    assert not (d1 / "capacity.csv").exists()
    assert (d2 / "capacity.csv").exists()
    assert not (d2 / "report.json").exists()


def test_unwritable_output_dir_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    code = main(["capacity", "--constellation", "bpsk", "--snr-db", "0",
                 "--samples", "5000",
                 "--output-dir", str(blocker / "sub")])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_gmi_command_invariants(tmp_path, capsys):
    assert main(["gmi", "--model", "ar1", "--alpha", "0.9",
                 "--constellation", "bpsk", "--snr-db", "0",
                 "--K", "20000", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("gmi:")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["mu_star"] < 0.0
    assert payload["gmi_nats"] >= payload["g_at_minus_one_nats"] - 1e-12
    assert payload["block_length"] == 20000
    curve = (tmp_path / "lambda_curve.csv").read_text().splitlines()
    assert curve[0] == "mu,lambda_hat"


def test_gmi_model_key_mismatch_exits_2(tmp_path, capsys):
    code = main(["gmi", "--model", "ar1", "--doppler", "0.1",
                 "--constellation", "bpsk", "--snr-db", "0",
                 "--K", "1000", "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha" in err or "doppler" in err


def test_ladder_command(tmp_path, capsys):
    assert main(["ladder", "--model", "ar1", "--alpha", "0.95",
                 "--constellation", "qpsk", "--snr-db", "3", "--L", "4",
                 "--predictor-order", "8", "--samples", "2000",
                 "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("ladder:")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["rho_linear"]) == 4
    assert payload["rho_linear"][0] == 0.0
    assert payload["l_average_nats"] >= 0.0
    lines = (tmp_path / "ladder.csv").read_text().splitlines()
    assert lines[0] == "l,rho_linear,capacity_nats,capacity_bits"


def test_simulate_command(tmp_path, capsys):
    assert main(["simulate", "--model", "ar1", "--alpha", "0.9",
                 "--constellation", "bpsk", "--snr-db", "3", "--L", "3",
                 "--K", "16", "--rate-fraction", "0.4", "--trials", "20",
                 "--gmi-K", "20000", "--predictor-order", "8",
                 "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("simulate:")
    text = (tmp_path / "report.json").read_text()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert len(payload["per_psc_block_error"]) == 3
    assert (tmp_path / "simulate.csv").exists()


def test_sweep_command_grid_and_monotone(tmp_path, capsys):
    assert main(["sweep", "--constellation", "qpsk", "--snr-db", "0:2:10",
                 "--samples", "30000", "--seed", "5",
                 "--plot", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sweep: 6 points")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "snr_db,rho_linear,capacity_nats,capacity_bits,ci_nats"
    assert len(lines) == 7
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    caps = [r[2] for r in rows]
    cis = [r[4] for r in rows]
    for i in range(5):
        assert caps[i + 1] >= caps[i] - (cis[i] + cis[i + 1])
    svg = (tmp_path / "sweep.svg").read_text()
    assert svg.lstrip().startswith("<svg")


def test_reports_are_deterministic_across_commands(tmp_path, capsys):
    args = ["gmi", "--model", "ar1", "--alpha", "0.9", "--constellation",
            "qpsk", "--snr-db", "0", "--K", "10000", "--seed", "3"]
    d1, d2 = tmp_path / "x", tmp_path / "y"
    assert main(args + ["--output-dir", str(d1)]) == 0
    assert main(args + ["--output-dir", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


# every subcommand's option strings as the hand-written parser declared them
# before the parser was generated from SCHEMAS
_COMMON_OPTIONS = {"--config", "--format", "--output-dir", "--plot", "--seed"}
_MODEL_OPTIONS = {"--alpha", "--doppler", "--model", "--table"}
FROZEN_OPTIONS = {
    "capacity": _COMMON_OPTIONS | {"--constellation", "--quadrature",
                                   "--samples", "--snr-db"},
    "gmi": _COMMON_OPTIONS | _MODEL_OPTIONS | {
        "--K", "--constellation", "--curve-points", "--mu-max", "--mu-min",
        "--snr-db"},
    "ladder": _COMMON_OPTIONS | _MODEL_OPTIONS | {
        "--L", "--constellation", "--predictor-order", "--samples",
        "--snr-db"},
    "simulate": _COMMON_OPTIONS | _MODEL_OPTIONS | {
        "--K", "--L", "--constellation", "--error-target", "--genie",
        "--gmi-K", "--predictor-order", "--rate-fraction", "--snr-db",
        "--trials"},
    "sweep": _COMMON_OPTIONS | {"--constellation", "--samples", "--snr-db"},
}


def test_option_strings_are_frozen():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(FROZEN_OPTIONS)
    for command, sub in subs.choices.items():
        options = {opt for action in sub._actions
                   for opt in action.option_strings} - {"-h", "--help"}
        assert options == FROZEN_OPTIONS[command], command


# one text per key, none equal to its default
_SAMPLE_TEXT = {
    "seed": "7", "output_dir": "out", "format": "csv", "plot": "true",
    "model": "clarke", "alpha": "0.5", "doppler": "0.1", "table": "t.csv",
    "constellation": "8psk", "snr_db": "1.5", "samples": "100",
    "quadrature": "true", "K": "50", "curve_points": "9", "mu_min": "-2",
    "mu_max": "-0.5", "L": "4", "predictor_order": "3",
    "rate_fraction": "0.3", "trials": "5", "genie": "true",
    "error_target": "0.1", "gmi_K": "1000",
}


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_flag_and_config_key_give_the_same_params(command):
    schema = SCHEMAS[command]
    text = dict(_SAMPLE_TEXT, snr_db="0:1:2") if command == "sweep" \
        else _SAMPLE_TEXT
    required = {key: text[key] for key, spec in schema.items() if spec.required}
    parser = build_parser()
    for key, spec in schema.items():
        flag = "--" + key.replace("_", "-")
        argv = [command, flag] if spec.parse is _parse_bool \
            else [command, flag, text[key]]
        from_flag = merge_parameters(command, required,
                                     _flag_values(parser.parse_args(argv)))
        from_file = merge_parameters(command, {**required, key: text[key]}, {})
        assert from_flag == from_file, key
        assert from_file[key] != spec.default, key


@pytest.mark.parametrize("argv, key", [
    (["capacity", "--constellation", "bpsk", "--snr-db", "0",
      "--seed", "abc"], "seed"),
    (["gmi", "--model", "ar1", "--alpha", "0.9", "--constellation", "bpsk",
      "--snr-db", "0", "--K", "x"], "K"),
])
def test_bad_typed_flag_exits_2_and_names_the_key(tmp_path, capsys, argv, key):
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert f"bad value for {key}" in capsys.readouterr().err


def test_bad_format_exits_2(tmp_path, capsys):
    code = main(["capacity", "--constellation", "bpsk", "--snr-db", "0",
                 "--format", "xml", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "format must be json, csv, or both" in capsys.readouterr().err


def test_singular_prediction_exits_1(tmp_path, capsys):
    # a constant autocorrelation makes every predictor's normal equations
    # singular once the observation noise vanishes (300 dB)
    table = tmp_path / "flat.csv"
    table.write_text("lag,re,im\n" + "".join(f"{k},1.0,0.0\n"
                                             for k in range(5)))
    code = main(["ladder", "--model", "tabulated", "--table", str(table),
                 "--constellation", "bpsk", "--snr-db", "300", "--L", "3",
                 "--predictor-order", "2", "--output-dir", str(tmp_path)])
    assert code == 1
    assert "singular" in capsys.readouterr().err


def test_runners_call_the_module_attribute(tmp_path, capsys, monkeypatch):
    # external tracers wrap cli.psk_capacity by replacing the attribute, so
    # the runners must look it up at call time
    calls = []

    def fake(order, rho, n_samples, seed):
        calls.append((order, rho, n_samples))
        return CapacityEstimate(nats=0.25, ci=0.0, raw_nats=0.25,
                                clamped=False)

    monkeypatch.setattr(cli, "psk_capacity", fake)
    assert main(["capacity", "--constellation", "qpsk", "--snr-db", "0",
                 "--samples", "1000", "--output-dir", str(tmp_path)]) == 0
    assert calls == [(4, 1.0, 1000)]
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["capacity_nats"] == 0.25
    assert main(["sweep", "--constellation", "qpsk", "--snr-db", "0:1:2",
                 "--samples", "1000", "--output-dir", str(tmp_path)]) == 0
    assert len(calls) == 4
    capsys.readouterr()


def test_missing_table_file_exits_2_and_names_the_key(tmp_path, capsys):
    code = main(["gmi", "--model", "tabulated",
                 "--table", str(tmp_path / "absent.csv"),
                 "--constellation", "bpsk", "--snr-db", "0", "--K", "100",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "cannot read table" in capsys.readouterr().err


def _assert_split_grid_matches_joined(tmp_path, capsys, flag):
    """`flag -10:2:0` gives the stdout, report, CSV and SVG of the
    `--snr-db=-10:2:0` form."""
    base = ["sweep", "--constellation", "bpsk", "--samples", "2000",
            "--format", "both", "--plot"]
    d1, d2 = tmp_path / "joined", tmp_path / "split"
    assert main(base + ["--snr-db=-10:2:0", "--output-dir", str(d1)]) == 0
    joined = capsys.readouterr().out
    assert main(base + [flag, "-10:2:0", "--output-dir", str(d2)]) == 0
    assert capsys.readouterr().out == joined
    assert joined.startswith("sweep: 6 points")
    for name in ("report.json", "sweep.csv", "sweep.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_negative_grid_is_accepted_as_its_own_token(tmp_path, capsys):
    _assert_split_grid_matches_joined(tmp_path, capsys, "--snr-db")


def test_abbreviated_flag_takes_a_negative_grid(tmp_path, capsys):
    # argparse accepts the unique prefix `--snr` for `--snr-db`
    _assert_split_grid_matches_joined(tmp_path, capsys, "--snr")


_REQUIRED_ARGV = {
    "capacity": ["--constellation", "bpsk"],
    "gmi": ["--model", "ar1", "--alpha", "0.9", "--constellation", "bpsk",
            "--K", "100"],
    "ladder": ["--model", "ar1", "--alpha", "0.9", "--constellation", "bpsk",
               "--L", "3"],
    "simulate": ["--model", "ar1", "--alpha", "0.9", "--constellation",
                 "bpsk", "--L", "3", "--K", "8", "--rate-fraction", "0.3"],
    "sweep": ["--constellation", "bpsk"],
}
# one non-finite value per part of the sweep grid
_NONFINITE_GRID = {"nan": "nan:1:2", "inf": "0:inf:2", "-inf": "0:1:-inf"}


@pytest.mark.parametrize("value", sorted(_NONFINITE_GRID))
@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_nonfinite_snr_exits_2(tmp_path, capsys, command, value):
    snr = _NONFINITE_GRID[value] if command == "sweep" else value
    code = main([command, *_REQUIRED_ARGV[command], f"--snr-db={snr}",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "bad value for snr_db" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_gmi_curve_points_below_one_exits_2_and_names_the_key(tmp_path, capsys):
    code = main(["gmi", *_REQUIRED_ARGV["gmi"], "--snr-db", "0",
                 "--curve-points", "0", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "curve_points" in capsys.readouterr().err
