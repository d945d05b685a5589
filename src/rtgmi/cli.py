"""Command-line front end.

Commands: capacity, gmi, ladder, simulate, sweep.  Parameters come from an
optional flat key=value config file plus flags; flags win.  All SNR inputs
are in dB at this layer and converted to linear internally.  Outputs are a
versioned report.json, CSVs, and optional SVG plots, all deterministic for a
fixed (config, seed) so reruns are byte-identical.  This module is the one
that reads argv and writes every output file; the computing modules return
values.

COMMANDS is the one table: per command, its help, schema version, runner
and parameters.  A Param's config-file key (snr_db) is also its flag
(--snr-db), both go through one parser, and its echo is the report.json key
that repeats the parsed value; runners return only what they compute.

Exit codes: 0 success, 1 numerical fault (a failed self-check, a singular
linear-algebra problem, or a nan or infinite value bound for report.json),
2 configuration error, 3 unwritable output directory.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

# perfbench/tracing.py wraps psk_capacity here; no command calls it, since
# every rate a command reports is exact
from .capacity import (NATS_TO_BITS, psk_capacity,  # noqa: F401
                       psk_capacity_quadrature, rate_ladder)
from .errors import ConfigurationError, NumericalConsistencyError
from .fading import Ar1Fading, ClarkeFading, TabulatedFading
from .gmi import DEFAULT_MU_RANGE, check_gmi_inputs, gmi
from .prediction import DEFAULT_PREDICTOR_ORDER
from .psk import make_constellation, synthesize_block_at_rho
from .simulate import SchemeConfig, psc_error_budget, run
from .svgplot import LinePlot
from .utils import MAX_GRID_POINTS, derive_seed

_NAMED_CONSTELLATIONS = {"bpsk": 2, "qpsk": 4, "8psk": 8, "16psk": 16}


def db_to_linear(db: float) -> float:
    """10^(db/10); a ValueError where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB overflows a float") from None


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_constellation(text):
    low = str(text).strip().lower()
    if low in _NAMED_CONSTELLATIONS:
        return _NAMED_CONSTELLATIONS[low]
    try:
        order = int(low)
    except ValueError:
        raise ConfigurationError(
            f"constellation must be one of {sorted(_NAMED_CONSTELLATIONS)} "
            f"or an integer order, got {text!r}") from None
    if order < 2:
        raise ConfigurationError("constellation order must be >= 2")
    return order


def _parse_format(text):
    if text not in ("json", "csv", "both"):
        raise ConfigurationError(
            f"format must be json, csv, or both, got {text!r}")
    return text


def _parse_seed(text):
    """A non-negative integer, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def _parse_finite(text):
    """A float that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse_db(text):
    """An SNR in dB: finite, and finite in linear terms too."""
    value = _parse_finite(text)
    db_to_linear(value)
    return value


def _parse_grid(text):
    """START:STEP:STOP inclusive grid, all in dB."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigurationError(
            f"snr_db grid must be START:STEP:STOP, got {text!r}")
    try:
        start, step, stop = (_parse_finite(p) for p in parts)
    except ValueError:
        raise ConfigurationError(
            f"bad value for snr_db: {text!r}, START:STEP:STOP must be "
            f"finite numbers") from None
    if step <= 0 or stop < start:
        raise ConfigurationError("snr_db grid needs step > 0 and stop >= start")
    # floor(span) + 1 points; a span that overflows (inf) is too many too
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise ConfigurationError(
            f"bad value for snr_db: {text!r}, more than {MAX_GRID_POINTS} "
            f"points")
    grid = [start + i * step for i in range(int(span) + 1)]
    for db in grid:
        db_to_linear(db)
    return grid


@dataclass(frozen=True)
class Param:
    """One key of a command: parser, whether it must be given, default, help
    text, and echo, the report.json key that repeats the parsed value (None:
    the report does not repeat it)."""
    parse: callable
    required: bool = False
    default: object = None
    help: str = None
    echo: str = None


_COMMON = {
    "output_dir": Param(str, default="."),
    "format": Param(_parse_format, default="both", help="json | csv | both"),
    "plot": Param(_parse_bool, default=False),
}
_CONSTELLATION = Param(_parse_constellation, required=True,
                       echo="constellation_order")
_SNR_DB = Param(_parse_db, required=True, echo="snr_db")
# the master seed of the commands that draw fading paths
_SEED = Param(_parse_seed, default=0, echo="seed")
_MODEL_KEYS = {
    "model": Param(str, required=True, help="ar1 | clarke | tabulated",
                   echo="model"),
    "alpha": Param(_parse_finite, echo="alpha"),
    "doppler": Param(_parse_finite, echo="doppler"),
    "table": Param(str, help="CSV autocorrelation table (lag,re,im)",
                   echo="table"),
}
_L = Param(int, required=True, help="interleave depth",
           echo="interleave_depth")
_PREDICTOR_ORDER = Param(int, default=DEFAULT_PREDICTOR_ORDER,
                         echo="predictor_order")


def read_config_file(path):
    """Flat key=value lines; '#' starts a comment; blank lines skipped."""
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def merge_parameters(command: str, file_values: dict, flag_values: dict) -> dict:
    """Defaults, then config-file values, then flags; every value is parsed
    by its key's Param, whichever source it came from."""
    schema = SCHEMAS[command]
    params = {key: spec.default for key, spec in schema.items()}
    for values in (file_values, flag_values):
        for key, text in values.items():
            if text is None:
                continue
            if key not in schema:
                raise ConfigurationError(f"unknown key for {command}: {key!r}")
            try:
                params[key] = schema[key].parse(text)
            except ConfigurationError:
                raise
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"bad value for {key}: {text!r}") from None
    for key, spec in schema.items():
        if spec.required and params[key] is None:
            raise ConfigurationError(f"missing required key: {key}")
    return params


# each model's one parameter key, and the model built from its value
_MODELS = {"ar1": ("alpha", Ar1Fading), "clarke": ("doppler", ClarkeFading),
           "tabulated": ("table", TabulatedFading.from_csv)}


def build_model(params):
    name = str(params["model"]).strip().lower()
    if name not in _MODELS:
        raise ConfigurationError(
            f"model must be ar1, clarke, or tabulated, got {params['model']!r}")
    key, make = _MODELS[name]
    if params.get(key) is None:
        raise ConfigurationError(
            f"missing required key for model {name}: {key}")
    extra = sorted(other for other, _ in _MODELS.values()
                   if other != key and params.get(other) is not None)
    if extra:
        raise ConfigurationError(
            f"key {extra[0]!r} does not apply to model {name}")
    try:
        return make(params[key])
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read table {params[key]}: {exc}") from None


def _prepare_output_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory {path!r} is not writable: {exc}")


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _plain(value):
    """numpy arrays as lists and numpy scalars as Python ones, for json."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path, payload):
    """Strict JSON: a nan or infinite value is a numerical fault, named with
    the file it would have gone to."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=_plain,
                          allow_nan=False)
    except ValueError as exc:
        raise NumericalConsistencyError(f"{path}: {exc}") from None
    _write(path, text + "\n")


def _csv(header, rows):
    """A header line, then one line of comma-joined cell reprs per row.

    Cells are Python ints, floats and bools; repr keeps every float's bits.
    """
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Outputs:
    """What one command emits: report.json, <stem>.csv, <stem>.svg, a line."""
    stem: str
    payload: dict          # what it computed; _emit puts the echoes first
    csv: str
    plot: LinePlot         # None: the command draws nothing
    summary: str


def _emit(name, params, out: _Outputs):
    """Write the outputs that --format and --plot select, then the summary;
    report.json repeats each given parameter under its echo."""
    command = COMMANDS[name]
    path = os.path.join(params["output_dir"], out.stem)
    if params["format"] in ("json", "both"):
        head = {"schema_version": command.version, "command": name}
        head.update((spec.echo, params[key])
                    for key, spec in command.params.items()
                    if spec.echo is not None and params[key] is not None)
        _write_json(os.path.join(params["output_dir"], "report.json"),
                    {**head, **out.payload})
    if params["format"] in ("csv", "both"):
        _write(path + ".csv", out.csv)
    if params["plot"] and out.plot is not None:
        _write(path + ".svg", out.plot.render())
    print(out.summary)


_CAPACITY_COLUMNS = "snr_db,rho_linear,capacity_nats,capacity_bits"


def _capacity_row(order, snr_db):
    """(snr_db, rho, nats, bits): the exact capacity at one SNR."""
    rho = db_to_linear(snr_db)
    nats = psk_capacity_quadrature(order, rho)
    return snr_db, rho, nats, nats * NATS_TO_BITS


def _run_capacity(params):
    row = _capacity_row(params["constellation"], params["snr_db"])
    _, rho, nats, bits = row
    payload = {"rho_linear": rho, "capacity_nats": nats, "capacity_bits": bits}
    return _Outputs("capacity", payload, _csv(_CAPACITY_COLUMNS, [row]), None,
                    f"capacity: {bits:.6f} bits/symbol")


def _run_gmi(params):
    mu_range = (params["mu_min"], params["mu_max"])
    check_gmi_inputs(mu_range, params["curve_points"], params["K"])
    model = build_model(params)
    rho = db_to_linear(params["snr_db"])
    const = make_constellation(params["constellation"])
    # gmi reads neither the residual nor the symbols, so neither is kept
    # while it runs: it holds x, h_hat, its gap table and one index each
    block = replace(synthesize_block_at_rho(model, rho, const, params["K"],
                                            derive_seed(params["seed"], 1)),
                    s=None, residual_noise=None)
    report = gmi(block, const, mu_range=mu_range,
                 curve_points=params["curve_points"],
                 seed=derive_seed(params["seed"], 2))
    payload = {
        "rho_linear": rho,
        "mu_star": report.mu_star,
        "gmi_nats": report.gmi,
        "gmi_bits": report.gmi * NATS_TO_BITS,
        "ci_nats": report.ci_halfwidth,
        "g_at_minus_one_nats": report.g_at_minus_one,
        "g_at_minus_one_ci_nats": report.g_at_minus_one_ci,
        "clamped": report.clamped,
    }
    plot = LinePlot(title="log-MGF of the decoding metric",
                    xlabel="mu", ylabel="lambda_hat (nats)")
    plot.add("lambda_hat", report.lambda_curve[:, 0], report.lambda_curve[:, 1])
    return _Outputs(
        "lambda_curve", payload,
        _csv("mu,lambda_hat", report.lambda_curve.tolist()), plot,
        f"gmi: {report.gmi * NATS_TO_BITS:.6f} bits/symbol "
        f"+/- {report.ci_halfwidth * NATS_TO_BITS:.6f} (95% CI), "
        f"mu* = {report.mu_star:.4f}")


def _run_ladder(params):
    model = build_model(params)
    snr = db_to_linear(params["snr_db"])
    ladder = rate_ladder(model, params["L"], snr, params["constellation"],
                         params["predictor_order"])
    payload = {
        "snr_linear": snr,
        "rho_linear": ladder.rho,
        "capacity_nats": ladder.capacity_nats,
        "l_average_nats": ladder.l_average,
        "l_average_bits": ladder.l_average * NATS_TO_BITS,
        "rt_estimate_nats": ladder.l_average,
        "convergence_gap_nats": ladder.convergence_gap,
    }
    plot = LinePlot(title="per-subchannel rate ladder",
                    xlabel="subchannel index", ylabel="rate (bits/symbol)")
    bits = ladder.capacity_nats * NATS_TO_BITS
    plot.add("capacity", np.arange(params["L"]), bits)
    rows = zip(range(params["L"]), ladder.rho.tolist(),
               ladder.capacity_nats.tolist(), bits.tolist())
    return _Outputs(
        "ladder", payload,
        _csv("l,rho_linear,capacity_nats,capacity_bits", rows), plot,
        f"ladder: l_average {ladder.l_average * NATS_TO_BITS:.6f} bits/symbol, "
        f"convergence gap {ladder.convergence_gap * NATS_TO_BITS:.6f}")


def _run_simulate(params):
    config = SchemeConfig(
        model=build_model(params),
        interleave_depth=params["L"],
        block_length=params["K"],
        constellation_order=params["constellation"],
        snr=db_to_linear(params["snr_db"]),
        rate_fraction=params["rate_fraction"],
        n_trials=params["trials"],
        master_seed=params["seed"],
        predictor_order=params["predictor_order"],
        genie=params["genie"],
        error_target=params["error_target"],
    )
    report = run(config)
    ls = np.arange(1, config.interleave_depth)
    plot = LinePlot(title="per-subchannel block error",
                    xlabel="subchannel index", ylabel="block error rate")
    plot.add("block error", ls, report.per_psc_block_error[1:])
    budget = psc_error_budget(config.error_target, config.interleave_depth)
    plot.add("budget", ls, np.full(len(ls), budget))
    payload = {
        "snr_linear": config.snr,
        "rho_linear": report.rho,
        "gmi_nats": report.gmi_nats,
        "rate_target_nats": report.rate_targets,
        "codebook_sizes": report.codebook_sizes,
        "per_psc_block_error": report.per_psc_block_error,
        "per_psc_ci": report.per_psc_ci,
        "overall_error": report.overall_error,
        "overall_ci": report.overall_ci,
        "achieved_rate_nats": report.achieved_rate,
        "budget_met": report.budget_met,
        "propagation_events": report.propagation_events,
    }
    rows = zip(range(config.interleave_depth), report.rho.tolist(),
               report.gmi_nats.tolist(), report.rate_targets.tolist(),
               report.per_psc_block_error.tolist(), report.budget_met)
    return _Outputs(
        "simulate", payload,
        _csv("l,rho_linear,gmi_nats,rate_target_nats,block_error,budget_met",
             rows), plot,
        f"simulate: achieved {report.achieved_rate * NATS_TO_BITS:.6f} "
        f"bits/symbol, overall block error {report.overall_error:.4f} "
        f"+/- {report.overall_ci:.4f} (95% CI)")


def _run_sweep(params):
    rows = [_capacity_row(params["constellation"], snr_db)
            for snr_db in params["snr_db"]]
    _, _, nats, bits = zip(*rows)
    payload = {"capacity_nats": nats, "capacity_bits": bits}
    plot = LinePlot(title="capacity vs SNR",
                    xlabel="SNR (dB)", ylabel="capacity (bits/symbol)")
    plot.add("capacity", params["snr_db"], bits)
    return _Outputs(
        "sweep", payload, _csv(_CAPACITY_COLUMNS, rows), plot,
        f"sweep: {len(rows)} points, capacity {min(bits):.6f}.."
        f"{max(bits):.6f} bits/symbol")


@dataclass(frozen=True)
class Command:
    help: str
    version: int        # report.json's schema_version
    run: callable       # params -> _Outputs
    params: dict        # key -> Param


COMMANDS = {
    "capacity": Command("memoryless PSK capacity at one SNR", 2, _run_capacity,
                        {**_COMMON, "constellation": _CONSTELLATION,
                         "snr_db": _SNR_DB}),
    "gmi": Command("GMI of the nearest-neighbor metric", 1, _run_gmi, {
        **_COMMON, "seed": _SEED, **_MODEL_KEYS,
        "constellation": _CONSTELLATION, "snr_db": _SNR_DB,
        "K": Param(int, default=100_000, help="block length",
                   echo="block_length"),
        "curve_points": Param(int, default=33),
        "mu_min": Param(_parse_finite, default=DEFAULT_MU_RANGE[0]),
        "mu_max": Param(_parse_finite, default=DEFAULT_MU_RANGE[1]),
    }),
    "ladder": Command("per-subchannel rate ladder", 3, _run_ladder, {
        **_COMMON, **_MODEL_KEYS,
        "constellation": _CONSTELLATION, "snr_db": _SNR_DB,
        "L": _L, "predictor_order": _PREDICTOR_ORDER,
        # accepted for old command lines and config files, and not repeated
        # in the report: the ladder is computed by quadrature and draws
        # nothing
        "seed": Param(_parse_seed, default=0),
        "samples": Param(int, help="ignored: the ladder is exact"),
    }),
    "simulate": Command("end-to-end recursive training run", 2,
                        _run_simulate, {
        **_COMMON, "seed": _SEED, **_MODEL_KEYS,
        "constellation": _CONSTELLATION, "snr_db": _SNR_DB,
        "L": _L,
        "K": Param(int, required=True, help="codeword length",
                   echo="block_length"),
        "rate_fraction": Param(_parse_finite, required=True,
                               echo="rate_fraction"),
        "trials": Param(int, default=1000, echo="n_trials"),
        "genie": Param(_parse_bool, default=False, echo="genie"),
        "predictor_order": _PREDICTOR_ORDER,
        "error_target": Param(_parse_finite, default=0.05,
                              echo="error_target"),
        # accepted for old command lines and config files: codebooks are
        # sized from the exact capacity and no GMI block is drawn
        "gmi_K": Param(int, help="ignored: codebooks are sized from the "
                                 "exact capacity"),
    }),
    "sweep": Command("capacity over an SNR grid", 2, _run_sweep, {
        **_COMMON, "constellation": _CONSTELLATION,
        "snr_db": Param(_parse_grid, required=True,
                        help="START:STEP:STOP in dB", echo="snr_db"),
    }),
}
# each command's keys, as the parser and merge_parameters read them
SCHEMAS = {name: command.params for name, command in COMMANDS.items()}


def build_parser():
    """One subcommand per COMMANDS entry, one flag per key: snr_db is --snr-db.

    Flags keep their text, as config-file values do, for merge_parameters to
    parse; boolean keys are bare flags.
    """
    parser = argparse.ArgumentParser(
        prog="rtgmi",
        description="PSK fading-channel rate estimation and recursive "
                    "decision-directed training simulation")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        # argparse reads a token after a value flag as a new option if it
        # starts with '-' and is not a plain negative number.  Widening its
        # negative-number pattern to "'-' then a digit or '.'" lets a
        # negative grid follow a flag (--snr-db -10:2:0).  The attribute is
        # private to argparse; test_cli's negative-grid tests fail if a
        # Python release changes it.
        sub._negative_number_matcher = re.compile(r"^-[\d.]")
        sub.add_argument("--config", help="flat key=value file")
        for key, spec in command.params.items():
            flag = "--" + key.replace("_", "-")
            if spec.parse is _parse_bool:
                sub.add_argument(flag, dest=key, action="store_const",
                                 const="true", help=spec.help)
            else:
                sub.add_argument(flag, dest=key, help=spec.help)
    return parser


def _flag_values(args: argparse.Namespace) -> dict:
    schema = SCHEMAS[args.command]
    return {key: value for key, value in vars(args).items() if key in schema}


def _fail(exc, code):
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        params = merge_parameters(args.command, file_values, _flag_values(args))
        _prepare_output_dir(params["output_dir"])
        _emit(args.command, params, COMMANDS[args.command].run(params))
        return 0
    except (NumericalConsistencyError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, but a singular solve is a numerical
        # fault, not a bad configuration
        return _fail(exc, 1)
    except ValueError as exc:  # ConfigurationError included
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
