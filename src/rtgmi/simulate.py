"""End-to-end simulation of interleaved recursive decision-directed training.

Channel time is split into L interleaved subchannels; subchannel 0 carries
known pilots and each data subchannel l is decoded in turn, predicting its
fading from noisy observations at the times of already-decoded subchannels
(using the decoded symbols, so decision errors pollute later predictions
unless genie mode substitutes the true symbols).  Codebooks are sized from a
per-subchannel achievable-rate estimate; decoding is exhaustive, which is
what caps the codebook size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decoder import decode
from .errors import ConfigurationError
from .fading import Ar1Fading, FadingModel, generate_path
from .gmi import gmi
from .prediction import (DEFAULT_PREDICTOR_ORDER, prediction_reference,
                         schedule_predictors)
from .psk import PscBlock, generate_codebook, make_constellation, synthesize_block_at_rho
from .utils import binomial_halfwidth, derive_seed

MAX_CODEBOOK_SIZE = 1 << 16
_STREAM_GMI = 1
_STREAM_PATH = 2
_STREAM_NOISE = 3
_STREAM_BOOK = 4
_STREAM_MSG = 5
_STRIDE = 1 << 20


@dataclass(frozen=True)
class SchemeConfig:
    model: FadingModel
    interleave_depth: int          # L
    block_length: int              # K, symbols per subchannel codeword
    constellation_order: int       # J
    snr: float
    rate_fraction: float           # codebook rate as a fraction of the GMI
    n_trials: int
    master_seed: int
    predictor_order: int = DEFAULT_PREDICTOR_ORDER
    genie: bool = False
    error_target: float = 0.05     # overall budget, split evenly across PSCs
    gmi_block_length: int = 100_000

    def __post_init__(self):
        if self.interleave_depth < 2:
            raise ConfigurationError("need at least one data subchannel (L >= 2)")
        if self.block_length < 1:
            raise ConfigurationError("block length must be positive")
        if self.constellation_order < 2:
            raise ConfigurationError("constellation order must be >= 2")
        if not self.snr > 0.0:
            raise ConfigurationError("snr must be positive")
        if not self.rate_fraction > 0.0:
            raise ConfigurationError("rate fraction must be positive")
        if self.n_trials < 1:
            raise ConfigurationError("need at least one trial")
        if not 0.0 < self.error_target < 1.0:
            raise ConfigurationError("error target must be in (0, 1)")


@dataclass
class RtReport:
    config: SchemeConfig
    rho: np.ndarray
    gmi_nats: np.ndarray
    gmi_ci: np.ndarray
    rate_targets: np.ndarray       # rate_fraction * gmi, nats/symbol
    codebook_sizes: np.ndarray
    per_psc_block_error: np.ndarray
    per_psc_ci: np.ndarray
    overall_error: float
    overall_ci: float
    achieved_rate: float
    budget_met: list
    propagation_events: int
    n_trials: int
    genie: bool

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("l,rho_linear,gmi_nats,rate_target_nats,block_error,budget_met\n")
            rows = zip(self.rho, self.gmi_nats, self.rate_targets,
                       self.per_psc_block_error, self.budget_met)
            for l, (rho, g, rt, err, ok) in enumerate(rows):
                fh.write(f"{l},{float(rho)!r},{float(g)!r},{float(rt)!r},"
                         f"{float(err)!r},{bool(ok)}\n")

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "interleave_depth": self.config.interleave_depth,
            "block_length": self.config.block_length,
            "constellation_order": self.config.constellation_order,
            "snr_linear": self.config.snr,
            "rate_fraction": self.config.rate_fraction,
            "genie": self.genie,
            "n_trials": self.n_trials,
            "rho_linear": [float(v) for v in self.rho],
            "gmi_nats": [float(v) for v in self.gmi_nats],
            "rate_target_nats": [float(v) for v in self.rate_targets],
            "codebook_sizes": [int(v) for v in self.codebook_sizes],
            "per_psc_block_error": [float(v) for v in self.per_psc_block_error],
            "per_psc_ci": [float(v) for v in self.per_psc_ci],
            "overall_error": self.overall_error,
            "overall_ci": self.overall_ci,
            "achieved_rate_nats": self.achieved_rate,
            "budget_met": [bool(v) for v in self.budget_met],
            "propagation_events": self.propagation_events,
        }


def _size_codebooks(config: SchemeConfig, rhos: np.ndarray):
    """Per-subchannel GMI estimates and codebook sizes round(exp(f*g*K))."""
    const = make_constellation(config.constellation_order)
    white = Ar1Fading(0.0)
    gmis = np.zeros(config.interleave_depth)
    cis = np.zeros(config.interleave_depth)
    sizes = np.zeros(config.interleave_depth, dtype=np.int64)
    for l in range(1, config.interleave_depth):
        block = synthesize_block_at_rho(
            white, float(rhos[l]), const, config.gmi_block_length,
            derive_seed(config.master_seed, _STREAM_GMI * _STRIDE + l))
        report = gmi(block, const,
                     seed=derive_seed(config.master_seed, _STREAM_GMI * _STRIDE + 512 + l))
        gmis[l] = report.gmi
        cis[l] = report.ci_halfwidth
        target = config.rate_fraction * report.gmi * config.block_length
        if target > 60.0:  # round(exp(...)) would overflow long before the cap test
            sizes[l] = np.iinfo(np.int64).max
        else:
            sizes[l] = max(int(round(math.exp(target))), 1)
    oversized = [l for l in range(1, config.interleave_depth)
                 if sizes[l] > MAX_CODEBOOK_SIZE]
    if oversized:
        raise ConfigurationError(
            f"codebook size exceeds {MAX_CODEBOOK_SIZE} for subchannels "
            f"{oversized}; exhaustive decoding is infeasible, reduce "
            f"block_length or rate_fraction")
    return gmis, cis, sizes


def run(config: SchemeConfig) -> RtReport:
    """Simulate the full scheme and tally per-subchannel block errors.

    Identical configs (same master seed) produce identical reports.  The
    fading path gets a pilot-only warm-up prefix long enough to cover every
    predictor's largest look-back offset, so all subchannels operate in the
    steady state that their effective-SNR values describe.
    """
    depth = config.interleave_depth
    n_k = config.block_length
    const = make_constellation(config.constellation_order)
    predictors = schedule_predictors(config.model, depth, config.snr,
                                     config.predictor_order)
    rhos = np.zeros(depth)
    for l in range(1, depth):
        rhos[l] = predictors[l].effective_snr
    gmis, gmi_cis, sizes = _size_codebooks(config, rhos)

    max_offset = max(max(predictors[l].spec.lag_pattern) for l in range(1, depth))
    warm_slots = int(math.ceil(max_offset / depth))
    total = (warm_slots + n_k) * depth
    sqrt_snr = math.sqrt(config.snr)

    err_counts = np.zeros(depth, dtype=np.int64)
    overall_count = 0
    propagation = 0

    for trial in range(config.n_trials):
        h = generate_path(config.model, total,
                          derive_seed(config.master_seed,
                                      _STREAM_PATH * _STRIDE + trial))
        rng_noise = np.random.default_rng(
            derive_seed(config.master_seed, _STREAM_NOISE * _STRIDE + trial))
        z = (rng_noise.standard_normal((total, 2)) @ np.array([1.0, 1j])) \
            / math.sqrt(2.0)
        rng_msg = np.random.default_rng(
            derive_seed(config.master_seed, _STREAM_MSG * _STRIDE + trial))

        # true symbol indices: pilots everywhere, then per-subchannel codewords
        s_true = np.zeros(total, dtype=np.int64)
        books = [None] * depth
        sent = np.zeros(depth, dtype=np.int64)
        data_slots = warm_slots + np.arange(n_k)
        for l in range(1, depth):
            books[l] = generate_codebook(
                const, int(sizes[l]), n_k,
                derive_seed(config.master_seed,
                            _STREAM_BOOK * _STRIDE + trial * depth + l))
            sent[l] = rng_msg.integers(0, sizes[l])
            s_true[data_slots * depth + l] = books[l].symbols[sent[l]]

        x_phys = sqrt_snr * h * const.points[s_true] + z

        # decision-directed feedback symbols; warm-up and pilots are known
        s_fb = s_true.copy()
        known = np.zeros(total, dtype=bool)
        known[:warm_slots * depth] = True
        known[np.arange(warm_slots + n_k) * depth] = True

        trial_errs = np.zeros(depth, dtype=bool)
        for l in range(1, depth):
            pred = predictors[l]
            times = data_slots * depth + l
            obs_times = known.nonzero()[0]
            obs = np.full(total, np.nan + 0j)
            obs[obs_times] = x_phys[obs_times] \
                * np.conj(const.points[s_fb[obs_times]]) / sqrt_snr
            _, h_ref = prediction_reference(pred, obs, times)
            if h_ref is None:
                h_ref = np.zeros(n_k, dtype=complex)
            x_block = x_phys[times] \
                / math.sqrt(1.0 + config.snr * pred.error_variance)
            codeword = books[l].symbols[sent[l]]
            block = PscBlock(
                x=x_block, h_hat=h_ref, s=codeword, rho=float(rhos[l]),
                residual_noise=x_block - np.sqrt(rhos[l]) * h_ref
                * const.points[codeword])
            outcome = decode(books[l], block, sent_message=int(sent[l]))
            trial_errs[l] = not outcome.correct
            decoded = books[l].symbols[outcome.chosen_message]
            s_fb[times] = s_true[times] if config.genie else decoded
            known[times] = True

        err_counts += trial_errs
        if trial_errs.any():
            overall_count += 1
            first = int(np.flatnonzero(trial_errs)[0])
            if trial_errs[first + 1:].any():
                propagation += 1

    n = config.n_trials
    per_err = err_counts / n
    per_ci = np.array([binomial_halfwidth(float(p), n) for p in per_err])
    overall = overall_count / n
    rate_targets = config.rate_fraction * gmis
    achieved = float(np.sum(rate_targets * (1.0 - per_err)) / depth)
    report = RtReport(
        config=config, rho=rhos, gmi_nats=gmis, gmi_ci=gmi_cis,
        rate_targets=rate_targets, codebook_sizes=sizes,
        per_psc_block_error=per_err, per_psc_ci=per_ci,
        overall_error=float(overall),
        overall_ci=binomial_halfwidth(float(overall), n),
        achieved_rate=achieved,
        budget_met=[], propagation_events=int(propagation),
        n_trials=n, genie=config.genie,
    )
    report.budget_met = budget_check(report, config.error_target, depth)
    return report


def budget_check(report: RtReport, error_target: float,
                 interleave_depth: int) -> list:
    """Per-subchannel: is the block-error estimate within budget, CI allowed?

    The per-subchannel budget is error_target / interleave_depth; an estimate
    passes when it does not exceed the budget by more than its binomial 95%
    half-width.
    """
    if not 0.0 < error_target < 1.0:
        raise ValueError("error target must be in (0, 1)")
    if interleave_depth < 1:
        raise ValueError("interleave depth must be >= 1")
    budget = error_target / interleave_depth
    out = []
    for p, ci in zip(report.per_psc_block_error, report.per_psc_ci):
        out.append(bool(p <= budget + ci))
    return out
