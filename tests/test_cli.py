import argparse
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

import rtgmi
from rtgmi import cli, prediction
from rtgmi.capacity import psk_capacity_quadrature
from rtgmi.cli import (MAX_GRID_POINTS, SCHEMAS, _flag_values, _parse_bool,
                       _parse_constellation, _parse_finite, _parse_grid,
                       build_model, build_parser, db_to_linear, main,
                       merge_parameters, read_config_file)
from rtgmi.errors import ConfigurationError
from rtgmi.fading import Ar1Fading, ClarkeFading
from rtgmi.gmi import gmi
from rtgmi.prediction import MAX_PREDICTOR_ORDER
from rtgmi.psk import make_constellation, synthesize_block_at_rho
from rtgmi.simulate import SchemeConfig, run
from rtgmi.utils import derive_seed


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
    assert params["format"] == "both"  # default filled in


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
    args = ["capacity", "--constellation", "qpsk", "--snr-db", "0"]
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
    assert payload["schema_version"] == 2
    assert payload["rho_linear"] == 1.0
    assert payload["capacity_nats"] == psk_capacity_quadrature(4, 1.0)
    assert "seed" not in payload and "ci_nats" not in payload
    csv_lines = (d1 / "capacity.csv").read_text().splitlines()
    assert csv_lines[0] == "snr_db,rho_linear,capacity_nats,capacity_bits"


@pytest.mark.parametrize("command", ["capacity", "sweep"])
@pytest.mark.parametrize("option", ["--samples=100", "--quadrature",
                                    "--seed=7"])
def test_retired_capacity_options_exit_2(tmp_path, capsys, command, option):
    # every rate they print is exact, so they sample nothing and take no seed
    argv = [command, "--constellation", "qpsk", "--snr-db",
            "0:1:2" if command == "sweep" else "0", option,
            "--output-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_capacity_saturates_at_the_largest_snr(tmp_path, capsys):
    # 3080 dB (rho = 1e308) used to overflow the quadrature: RuntimeWarnings,
    # then a nan bound for report.json and exit 1
    assert main(["capacity", "--constellation", "qpsk", "--snr-db", "3080",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["capacity_nats"] == math.log(4.0)


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("constellation=bpsk\nsnr_db=0\nformat=json\n")
    assert main(["capacity", "--config", str(cfg), "--snr-db", "10",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["snr_db"] == 10.0
    assert payload["rho_linear"] == 10.0


def test_format_selects_outputs(tmp_path, capsys):
    base = ["capacity", "--constellation", "bpsk", "--snr-db", "0"]
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
    out = capsys.readouterr().out
    assert out.startswith("ladder:") and "CI" not in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == 3
    assert "samples" not in payload and "capacity_ci_nats" not in payload
    assert "seed" not in payload
    assert len(payload["rho_linear"]) == 4
    assert payload["rho_linear"][0] == 0.0
    assert payload["l_average_nats"] >= 0.0
    for rho, cap in zip(payload["rho_linear"], payload["capacity_nats"]):
        assert cap == psk_capacity_quadrature(4, rho)
    lines = (tmp_path / "ladder.csv").read_text().splitlines()
    assert lines[0] == "l,rho_linear,capacity_nats,capacity_bits"


def test_ladder_ignores_samples(tmp_path, capsys):
    # the ladder draws no samples, but old command lines still pass --samples
    base = ["ladder", "--model", "ar1", "--alpha", "0.9", "--constellation",
            "bpsk", "--snr-db", "0", "--L", "3", "--predictor-order", "4"]
    outputs = []
    for extra in ([], ["--samples", "2000"], ["--samples", "7"]):
        out = tmp_path / str(len(outputs))
        assert main(base + extra + ["--output-dir", str(out)]) == 0
        outputs.append((capsys.readouterr().out,
                        (out / "report.json").read_bytes(),
                        (out / "ladder.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert "ignored" in subs.choices["ladder"].format_help()


def test_ladder_output_does_not_depend_on_the_seed(tmp_path, capsys):
    # nothing in the ladder is random; --seed stays accepted
    base = ["ladder", "--model", "ar1", "--alpha", "0.9", "--constellation",
            "qpsk", "--snr-db", "0", "--L", "3", "--predictor-order", "4",
            "--plot"]
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(base + ["--seed", seed, "--output-dir", str(out)]) == 0
        outputs.append((capsys.readouterr().out,
                        *(p.read_bytes() for p in sorted(out.iterdir()))))
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


def test_importing_the_cli_builds_no_quadrature_tables(tmp_path):
    # setup cost: scipy.integrate serves only the tests' oracles, the
    # capacity node tables are built on first use, and scipy.special loads
    # with no command: J0 is rtgmi's own, for AR(1) and Clarke alike
    src = pathlib.Path(rtgmi.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = ["--constellation", "qpsk", "--snr-db", "0", "--output-dir",
           str(tmp_path)]
    ar1 = ["--model", "ar1", "--alpha", "0.9", *out]
    clarke = ["--model", "clarke", "--doppler", "0.05", *out]
    code = ("import contextlib, io, sys, rtgmi.cli\n"
            "from rtgmi.capacity import _legendre, _noise_rule\n"
            "def run(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert rtgmi.cli.main(argv) == 0\n"
            "    return 'scipy.special' in sys.modules\n"
            "print('scipy.integrate' in sys.modules,"
            " _noise_rule.cache_info().currsize,"
            " _legendre.cache_info().currsize,"
            " 'scipy.special' in sys.modules)\n"
            f"print(run({['gmi', *ar1, '--K', '1000']!r}),"
            f" run({['ladder', *ar1, '--L', '4']!r}),"
            f" run({['gmi', *clarke, '--K', '100']!r}))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False", "0", "0", "False",
                                     "False", "False", "False"]


def test_no_command_loads_scipy(tmp_path):
    # scipy serves the tests' oracles alone: the CLI's import and its AR(1),
    # Clarke, tabulated, capacity and sweep commands leave it unloaded, and
    # the import leaves numpy.fft, which tabulated synthesis loads, unloaded
    src = pathlib.Path(rtgmi.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = ["--constellation", "qpsk", "--output-dir", str(tmp_path),
           "--plot"]
    ar1 = ["--model", "ar1", "--alpha", "0.9", "--snr-db", "0", *out]
    clarke = ["--model", "clarke", "--doppler", "0.05", "--snr-db", "0",
              *out]
    table = tmp_path / "table.csv"
    table.write_text("lag,re,im\n0,1.0,0.0\n1,0.5,0.0\n")
    sim = ["--L", "3", "--K", "16", "--rate-fraction", "0.5", "--trials",
           "20", "--gmi-K", "2000", "--predictor-order", "4"]
    runs = [["gmi", *ar1, "--K", "1000"],
            ["ladder", *ar1, "--L", "4"],
            ["simulate", *ar1, *sim],
            ["capacity", "--snr-db", "0", *out],
            ["sweep", "--snr-db=-3:3:3", *out],
            ["gmi", *clarke, "--K", "100"],
            ["simulate", *clarke, *sim, "--genie"],
            ["gmi", "--model", "tabulated", "--table", str(table),
             "--snr-db", "0", *out, "--K", "100"]]
    code = ("import contextlib, io, sys, rtgmi.cli\n"
            "def run(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert rtgmi.cli.main(argv) == 0\n"
            "    return 'scipy' in sys.modules\n"
            "print('numpy.fft' in sys.modules, 'scipy' in sys.modules,"
            f" *(run(argv) for argv in {runs!r}))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False"] * 10


def test_gmi_command_holds_the_block_and_the_table_only(tmp_path, capsys):
    """No residual, no symbols and no per-sample vector: the command's peak
    is x, h_hat, the (J - 1, n) gap table and a byte of nearest symbol per
    sample, 57 bytes at QPSK, plus 1.5 MiB of cache blocks (0.96 MB
    measured; synthesis peaks below, at 56 bytes)."""
    n = 200_000
    argv = ["gmi", "--model", "ar1", "--alpha", "0.99", "--constellation",
            "qpsk", "--snr-db", "0", "--K", str(n), "--output-dir",
            str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    held = (16 + 16 + 3 * 8 + 1) * n    # x, h_hat, 3 gap rows, j*
    assert peak <= held + (3 << 19)


@pytest.fixture
def refuse_synthesis(monkeypatch):
    """gmi's block synthesis fails the test: a refused run must exit before
    it draws a sample."""
    def refuse(*args, **kwargs):
        raise AssertionError("the block was synthesized")

    monkeypatch.setattr(cli, "synthesize_block_at_rho", refuse)


@pytest.mark.parametrize("k", ["8", "63"])
def test_gmi_on_fewer_samples_than_bootstrap_segments_exits_2(
        tmp_path, capsys, refuse_synthesis, k):
    # it used to exit 0 with a nan CI, after two RuntimeWarnings, and then
    # to synthesize the block before refusing it
    code = main(["gmi", "--model", "ar1", "--alpha", "0.5", "--constellation",
                 "qpsk", "--snr-db", "0", "--K", k, "--output-dir",
                 str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "64" in err and f"got {k}" in err
    assert not (tmp_path / "report.json").exists()


def test_a_nan_bound_for_the_report_exits_1_and_names_the_file(
        tmp_path, capsys, monkeypatch):
    # json.dumps used to write a bare NaN, which strict JSON readers refuse
    def fake(order, rho):
        return float("nan")

    monkeypatch.setattr(cli, "psk_capacity_quadrature", fake)
    code = main(["capacity", "--constellation", "qpsk", "--snr-db", "0",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert str(tmp_path / "report.json") in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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
    assert payload["schema_version"] == 2
    assert len(payload["per_psc_block_error"]) == 3
    # the resolved config, enough to rerun it
    assert {key: payload[key] for key in (
        "command", "model", "alpha", "constellation_order", "snr_db", "seed",
        "predictor_order", "error_target", "rate_fraction", "n_trials",
        "interleave_depth", "block_length", "genie")} == {
        "command": "simulate", "model": "ar1", "alpha": 0.9,
        "constellation_order": 2, "snr_db": 3.0, "seed": 0,
        "predictor_order": 8, "error_target": 0.05, "rate_fraction": 0.4,
        "n_trials": 20, "interleave_depth": 3, "block_length": 16,
        "genie": False}
    assert (tmp_path / "simulate.csv").exists()


def test_simulate_white_fading_predicts_nothing(tmp_path, capsys):
    # no past sample says anything about white fading: every data
    # subchannel's predictor is degenerate, its zero prediction is its
    # reference, and at rho = 0 its codebook holds one codeword
    assert main(["simulate", "--model", "ar1", "--alpha", "0",
                 "--constellation", "qpsk", "--snr-db", "0", "--L", "3",
                 "--K", "40", "--rate-fraction", "0.5", "--trials", "20",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["genie"] is False
    assert payload["rho_linear"] == [0.0, 0.0, 0.0]
    assert payload["codebook_sizes"] == [0, 1, 1]
    assert payload["per_psc_block_error"] == [0.0, 0.0, 0.0]
    assert payload["overall_error"] == 0.0
    assert payload["propagation_events"] == 0
    assert payload["achieved_rate_nats"] == 0.0


def test_ladder_csv(tmp_path, capsys):
    assert main(["ladder", "--model", "ar1", "--alpha", "0.9",
                 "--constellation", "bpsk", "--snr-db", "0", "--L", "3",
                 "--predictor-order", "4", "--samples", "2000", "--seed", "8",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "ladder.csv").read_text().splitlines()
    assert lines[0] == "l,rho_linear,capacity_nats,capacity_bits"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    assert float(first[2]) == 0.0


def test_gmi_curve_csv_format(tmp_path, capsys):
    assert main(["gmi", "--model", "ar1", "--alpha", "0",
                 "--constellation", "bpsk", "--snr-db", "0", "--K", "5000",
                 "--seed", "15", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # the report the command computes, from the same seeds
    c = make_constellation(2)
    blk = synthesize_block_at_rho(Ar1Fading(0.0), 1.0, c, 5000,
                                  derive_seed(15, 1))
    rep = gmi(blk, c, seed=derive_seed(15, 2))
    lines = (tmp_path / "lambda_curve.csv").read_text().splitlines()
    assert lines[0] == "mu,lambda_hat"
    assert len(lines) == 1 + len(rep.lambda_curve)
    mu0, lam0 = lines[1].split(",")
    assert float(mu0) == rep.lambda_curve[0, 0]
    assert float(lam0) == rep.lambda_curve[0, 1]


_SMALL_SIMULATE = ["simulate", "--model", "ar1", "--alpha", "0.95",
                   "--constellation", "bpsk", "--snr-db", "3", "--L", "3",
                   "--K", "24", "--rate-fraction", "0.4",
                   "--predictor-order", "8", "--gmi-K", "20000",
                   "--seed", "11"]


def test_simulate_csv_and_json_outputs(tmp_path, capsys):
    assert main(_SMALL_SIMULATE + ["--trials", "40",
                                   "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rep = run(SchemeConfig(model=Ar1Fading(0.95), interleave_depth=3,
                           block_length=24, constellation_order=2,
                           snr=db_to_linear(3.0), rate_fraction=0.4,
                           n_trials=40, master_seed=11, predictor_order=8))
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    assert lines[0] == "l,rho_linear,gmi_nats,rate_target_nats,block_error,budget_met"
    assert len(lines) == 1 + rep.config.interleave_depth
    cells = lines[1].split(",")
    assert cells[0] == "0" and float(cells[1]) == 0.0

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == 2
    for key in ("rho_linear", "gmi_nats", "rate_target_nats", "codebook_sizes",
                "per_psc_block_error", "per_psc_ci", "overall_error",
                "overall_ci", "achieved_rate_nats", "budget_met",
                "propagation_events", "snr_linear", "genie", "n_trials"):
        assert key in payload, key
    assert payload["per_psc_block_error"] == list(rep.per_psc_block_error)
    assert all(isinstance(v, bool) for v in payload["budget_met"])


def test_simulate_refuses_orders_past_256_with_exit_2(tmp_path, capsys):
    # a codebook byte carries at least one symbol; capacity takes any order
    argv = list(_SMALL_SIMULATE)
    argv[argv.index("--constellation") + 1] = "257"
    assert main(argv + ["--trials", "1", "--output-dir", str(tmp_path)]) == 2
    assert "[2, 256]" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["ladder", "--model", "ar1", "--alpha", "0.9",
                  "--constellation", "qpsk", "--snr-db", "0", "--L", "3",
                  "--predictor-order", "8"], id="ladder"),
    pytest.param(_SMALL_SIMULATE, id="simulate"),
])
def test_predictor_order_past_the_cap_exits_2_quickly(tmp_path, capsys,
                                                       monkeypatch, argv):
    # order 20000 used to die in an uncaught MemoryError under a 4 GB
    # address-space limit; the cap refuses it before any lag pattern
    monkeypatch.setattr(prediction, "schedule_lag_pattern", None)
    argv = list(argv)
    argv[argv.index("--predictor-order") + 1] = str(MAX_PREDICTOR_ORDER + 1)
    start = time.perf_counter()
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 2.0
    assert f"[1, {MAX_PREDICTOR_ORDER}]" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_simulate_ignores_gmi_k(tmp_path, capsys):
    # codebooks are sized from the exact capacity, but old command lines
    # still pass --gmi-K
    argv = [a for a in _SMALL_SIMULATE if a not in ("--gmi-K", "20000")]
    assert len(argv) == len(_SMALL_SIMULATE) - 2
    outputs = []
    for extra in ([], ["--gmi-K", "7"]):
        out = tmp_path / str(len(outputs))
        assert main(argv + extra + ["--trials", "5", "--plot",
                                    "--output-dir", str(out)]) == 0
        outputs.append((capsys.readouterr().out,
                        *(p.read_bytes() for p in sorted(out.iterdir()))))
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert "ignored" in subs.choices["simulate"].format_help()


def test_simulate_report_is_plain_json(tmp_path, capsys):
    # numpy arrays and scalars reach report.json as plain JSON lists,
    # integers and booleans, not as text or floats
    assert main(_SMALL_SIMULATE + ["--trials", "5",
                                   "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert isinstance(payload["codebook_sizes"][1], int)
    assert all(type(v) is int for v in payload["codebook_sizes"])
    assert all(type(v) is float for v in payload["per_psc_ci"])


def test_sweep_command_grid_and_monotone(tmp_path, capsys):
    assert main(["sweep", "--constellation", "qpsk", "--snr-db", "0:2:10",
                 "--plot", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sweep: 6 points")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "snr_db,rho_linear,capacity_nats,capacity_bits"
    assert len(lines) == 7
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    caps = [r[2] for r in rows]
    for i in range(5):
        assert caps[i + 1] > caps[i]
    # every point is the exact oracle, bit for bit
    assert caps == [psk_capacity_quadrature(4, r[1]) for r in rows]
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == 2
    assert payload["capacity_nats"] == caps
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
# before the parser was generated from SCHEMAS, less capacity's and sweep's
# --samples, --quadrature and --seed: those two commands print exact rates
_COMMON_OPTIONS = {"--config", "--format", "--output-dir", "--plot"}
# the commands that take a fading model, and only they, take a seed
_MODEL_OPTIONS = {"--alpha", "--doppler", "--model", "--seed", "--table"}
FROZEN_OPTIONS = {
    "capacity": _COMMON_OPTIONS | {"--constellation", "--snr-db"},
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
    "sweep": _COMMON_OPTIONS | {"--constellation", "--snr-db"},
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
    "K": "50", "curve_points": "9", "mu_min": "-2",
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


# a runnable, non-default config text for every key a report repeats, less
# the model's, and the seed, which the ladder takes and does not repeat
_ECHO_TEXT = {
    "constellation": "qpsk", "snr_db": "1.5", "seed": "7", "L": "3",
    "predictor_order": "3", "rate_fraction": "0.3", "trials": "5",
    "genie": "true", "error_target": "0.1",
}
_ECHO_TEXT_BY_COMMAND = {"gmi": {"K": "100"}, "simulate": {"K": "8"},
                         "sweep": {"snr_db": "0:1:2"}}
# each model with the one parameter key it takes
_MODEL_TEXT = {"ar1": ("alpha", "0.5"), "clarke": ("doppler", "0.1"),
               "tabulated": ("table", "table.csv")}
# the report keys that repeat each command's inputs, as README lists them
_MODEL_ECHOES = {"model", "alpha", "doppler", "table"}
FROZEN_ECHOES = {
    "capacity": {"constellation_order", "snr_db"},
    "gmi": _MODEL_ECHOES | {"block_length", "constellation_order", "seed",
                            "snr_db"},
    "ladder": _MODEL_ECHOES | {"constellation_order", "interleave_depth",
                               "predictor_order", "snr_db"},
    "simulate": _MODEL_ECHOES | {
        "block_length", "constellation_order", "error_target", "genie",
        "interleave_depth", "n_trials", "predictor_order", "rate_fraction",
        "seed", "snr_db"},
    "sweep": {"constellation_order", "snr_db"},
}
_ECHO_CASES = [(command, model) for command, schema in sorted(SCHEMAS.items())
               for model in (sorted(_MODEL_TEXT) if "model" in schema
                             else [None])]


@pytest.mark.parametrize("command, model", _ECHO_CASES)
def test_report_repeats_every_config_value_under_its_echo(
        tmp_path, capsys, monkeypatch, command, model):
    schema = SCHEMAS[command]
    text = {key: value for key, value in _ECHO_TEXT.items() if key in schema}
    text.update(_ECHO_TEXT_BY_COMMAND.get(command, {}))
    if model is not None:
        key, value = _MODEL_TEXT[model]
        text.update({"model": model, key: str(tmp_path / value)
                     if model == "tabulated" else value})
        (tmp_path / "table.csv").write_text(
            "lag,re,im\n" + "".join(f"{k},{1 - k / 9!r},0.0\n"
                                    for k in range(9)))
    (tmp_path / "run.cfg").write_text(
        "".join(f"{key} = {value}\n" for key, value in text.items()))
    params = merge_parameters(command, text, {})
    echoed = {key: spec.echo for key, spec in schema.items() if spec.echo}
    assert set(echoed.values()) == FROZEN_ECHOES[command]
    other_models = {key for key, _ in _MODEL_TEXT.values()} - text.keys()
    assert set(echoed) - other_models <= text.keys()
    for key in text.keys() & echoed.keys():
        assert params[key] != schema[key].default, key
    # the runner's own payload, before the head is put in front of it
    payloads = []
    real = cli.COMMANDS[command]

    def spy(run_params):
        out = real.run(run_params)
        payloads.append(out.payload)
        return out

    monkeypatch.setitem(cli.COMMANDS, command,
                        dataclasses.replace(real, run=spy))
    assert main([command, "--config", str(tmp_path / "run.cfg"),
                 "--format", "json", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    head = {"schema_version": real.version, "command": command,
            **{echoed[key]: params[key] for key in text.keys() & echoed.keys()}}
    assert {key: report[key] for key in head} == head
    [payload] = payloads
    assert not payload.keys() & head.keys()
    assert set(report) == head.keys() | payload.keys()
    if command == "ladder":
        assert params["seed"] == 7 and "seed" not in report


@pytest.mark.parametrize("argv, key", [
    (["gmi", "--model", "ar1", "--alpha", "0.9", "--constellation", "bpsk",
      "--snr-db", "0", "--seed", "abc"], "seed"),
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
    # external tracers wrap the cli's functions by replacing the attribute,
    # so the runners must look psk_capacity_quadrature up at call time
    calls = []

    def fake(order, rho):
        calls.append((order, rho))
        return 0.25

    monkeypatch.setattr(cli, "psk_capacity_quadrature", fake)
    assert main(["capacity", "--constellation", "qpsk", "--snr-db", "0",
                 "--output-dir", str(tmp_path)]) == 0
    assert calls == [(4, 1.0)]
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["capacity_nats"] == 0.25
    assert main(["sweep", "--constellation", "qpsk", "--snr-db", "0:1:2",
                 "--output-dir", str(tmp_path)]) == 0
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
    base = ["sweep", "--constellation", "bpsk", "--format", "both", "--plot"]
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


@pytest.mark.parametrize("argv, message", [
    (["simulate", *_REQUIRED_ARGV["simulate"], "--snr-db", "0", "--genie",
      "-3"], "unrecognized arguments: -3"),
    (["capacity", "--config", "-1.cfg"], "cannot read config file -1.cfg"),
    (["sweep", "--c", "-10:2:0"], "ambiguous option"),
])
def test_argv_edge_cases_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    # a dash-digit token is a value only where a flag takes one, and an
    # ambiguous abbreviation stays an error
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:     # argparse's own usage errors
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_gmi_curve_points_below_one_exits_2_and_names_the_key(
        tmp_path, capsys, refuse_synthesis):
    # and above the sweep's grid bound, which np.logspace would otherwise
    # be asked to build; a 10^6-sample block used to be synthesized first
    # (0.17 s, 92 MB)
    for points in ("0", str(MAX_GRID_POINTS + 1)):
        code = main(["gmi", *_REQUIRED_ARGV["gmi"], "--snr-db", "0",
                     "--K", "1000000", "--curve-points", points,
                     "--output-dir", str(tmp_path)])
        assert code == 2, points
        assert "curve_points" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_snr_that_overflows_in_linear_terms_exits_2(tmp_path, capsys, command):
    # 4000 dB is a finite float whose linear value, 1e400, is not
    snr = "0:1000:4000" if command == "sweep" else "4000"
    code = main([command, *_REQUIRED_ARGV[command], f"--snr-db={snr}",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "bad value for snr_db" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_grid_whose_point_count_overflows_exits_2(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="snr_db"):
        _parse_grid("-1e308:1:1e308")
    code = main(["sweep", "--constellation", "bpsk",
                 "--snr-db=-1e308:1:1e308", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "bad value for snr_db" in capsys.readouterr().err


def test_grid_of_too_many_points_exits_2(tmp_path, capsys):
    assert len(_parse_grid("0:0.01:100")) == MAX_GRID_POINTS
    with pytest.raises(ConfigurationError, match="bad value for snr_db"):
        _parse_grid("0:1e-6:1")    # 1 000 001 points
    # about 1e300 points: rejected before any list is built
    code = main(["sweep", "--constellation", "bpsk", "--snr-db=0:1e-300:1",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "bad value for snr_db" in capsys.readouterr().err


# each key that _parse_finite reads, with one command that takes it
_FINITE_KEYS = sorted({key: command for command, schema in SCHEMAS.items()
                       for key, spec in schema.items()
                       if spec.parse is _parse_finite}.items())


def test_every_float_key_rejects_nonfinite_values():
    assert not [(command, key) for command, schema in SCHEMAS.items()
                for key, spec in schema.items() if spec.parse is float]
    assert [key for key, _ in _FINITE_KEYS] == [
        "alpha", "doppler", "error_target", "mu_max", "mu_min",
        "rate_fraction"]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key, command", _FINITE_KEYS)
def test_nonfinite_float_key_exits_2_and_names_the_key(tmp_path, capsys,
                                                       key, command, value):
    # --rate-fraction inf used to size codebooks from inf * 0 capacity
    flag = "--" + key.replace("_", "-")
    code = main([command, *_REQUIRED_ARGV[command], "--snr-db", "0",
                 f"{flag}={value}", "--output-dir", str(tmp_path)])
    assert code == 2
    assert f"bad value for {key}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_infinite_mu_min_exits_2(tmp_path):
    # it used to reach gmi, which never returned: a child process and a
    # timeout keep a regression from hanging the suite
    src = pathlib.Path(rtgmi.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "rtgmi.cli", "gmi", "--model", "ar1",
         "--alpha", "0.5", "--constellation", "bpsk", "--snr-db", "0",
         "--K", "1000", "--mu-min=-inf", "--output-dir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 2
    assert "bad value for mu_min" in result.stderr


def test_short_table_row_exits_2_and_names_the_line(tmp_path, capsys):
    table = tmp_path / "short.csv"
    table.write_text("lag,re,im\n0,1.0,0.0\n1,0.5\n")
    code = main(["gmi", "--model", "tabulated", "--table", str(table),
                 "--constellation", "bpsk", "--snr-db", "0", "--K", "100",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "short.csv:3: expected lag,re,im" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1,abc,0", "1.5,0.5,0"])
def test_bad_table_cell_exits_2_and_names_the_line(tmp_path, capsys, row):
    # a non-numeric cell or a non-integer lag used to surface as float's or
    # int's own message, with no file or line
    table = tmp_path / "bad.csv"
    table.write_text(f"lag,re,im\n0,1.0,0.0\n{row}\n")
    code = main(["gmi", "--model", "tabulated", "--table", str(table),
                 "--constellation", "bpsk", "--snr-db", "0", "--K", "100",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv:3: expected lag,re,im" in err and repr(row) in err


def test_nonfinite_table_value_exits_2_and_names_the_lag(tmp_path, capsys):
    # it used to reach the predictor and fail on a NaN error variance
    table = tmp_path / "nan.csv"
    table.write_text("lag,re,im\n0,1.0,0.0\n1,nan,0\n")
    code = main(["ladder", "--model", "tabulated", "--table", str(table),
                 "--constellation", "bpsk", "--snr-db", "0", "--L", "2",
                 "--predictor-order", "1", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "autocorrelation at lag 1 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(
    command for command, schema in SCHEMAS.items() if "seed" in schema))
def test_negative_seed_exits_2_and_names_the_key(tmp_path, capsys, command):
    # capacity used to exit with numpy's message, and the others masked -1
    # to 2**64 - 1
    code = main([command, *_REQUIRED_ARGV[command], "--snr-db", "0",
                 "--seed=-1", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "bad value for seed: '-1'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
