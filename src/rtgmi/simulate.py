"""End-to-end simulation of interleaved recursive decision-directed training.

Channel time is split into L interleaved subchannels; subchannel 0 carries
known pilots and each data subchannel l is decoded in turn, predicting its
fading from noisy observations at the times of already-decoded subchannels
(using the decoded symbols, so decision errors pollute later predictions
unless genie mode substitutes the true symbols).  Each data subchannel's
codebook is sized from its rate, the coherent PSK capacity at its effective
SNR, computed exactly by quadrature; sizes therefore depend on the config
alone, not on the master seed.  A codebook is never stored: its packed
bytes are streamed from its generator through the decoder, and only the
sent and the decoded rows are drawn on their own, so exhaustive decoding
time is all that caps the codebook size.  Each codebook's generator is
seeded once per trial and rewound to its saved start for each later read.
"""

import math
from dataclasses import dataclass

import numpy as np

from .capacity import psk_capacity_quadrature
# perfbench/tracing.py wraps decode, generate_codebook, gmi and
# synthesize_block_at_rho here; run calls none of them
from .decoder import decode, decode_seeded  # noqa: F401
from .errors import ConfigurationError
from .fading import FadingModel, generate_path
from .gmi import gmi  # noqa: F401
from .prediction import (DEFAULT_PREDICTOR_ORDER, prediction_reference,
                         schedule_predictors)
from .psk import (PscBlock, codebook_row, generate_codebook,  # noqa: F401
                  make_constellation, synthesize_block_at_rho)
from .utils import binomial_halfwidth, complex_normal, derive_seed

MAX_CODEBOOK_SIZE = 1 << 16
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
    rate_fraction: float           # codebook rate as a fraction of capacity
    n_trials: int
    master_seed: int
    predictor_order: int = DEFAULT_PREDICTOR_ORDER
    genie: bool = False
    error_target: float = 0.05     # overall budget, split evenly across PSCs

    def __post_init__(self):
        if self.interleave_depth < 2:
            raise ConfigurationError("need at least one data subchannel (L >= 2)")
        if self.block_length < 1:
            raise ConfigurationError("block length must be positive")
        if not 2 <= self.constellation_order <= 256:
            # a codebook byte carries at least one symbol (psk.packing)
            raise ConfigurationError("constellation order must be in [2, 256]")
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
    rate_targets: np.ndarray       # rate_fraction * gmi_nats, nats/symbol
    codebook_sizes: np.ndarray
    per_psc_block_error: np.ndarray
    per_psc_ci: np.ndarray
    overall_error: float
    overall_ci: float
    achieved_rate: float
    budget_met: list
    propagation_events: int


def _size_codebooks(config: SchemeConfig, rhos: np.ndarray):
    """Per-subchannel rates C_J(rho_l) and codebook sizes round(exp(f*C*K)).

    At effective SNR rho_l the nearest-neighbour metric is the matched
    Gaussian likelihood, so its GMI is exactly the coherent capacity C_J(rho_l).
    """
    rates = np.zeros(config.interleave_depth)
    sizes = np.zeros(config.interleave_depth, dtype=np.int64)
    for l in range(1, config.interleave_depth):
        rates[l] = psk_capacity_quadrature(config.constellation_order,
                                           float(rhos[l]))
        target = config.rate_fraction * rates[l] * config.block_length
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
    return rates, sizes


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
    rhos = np.array([0.0] + [p.effective_snr for p in predictors[1:]])
    rates, sizes = _size_codebooks(config, rhos)

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
        z = complex_normal(rng_noise, total)
        rng_msg = np.random.default_rng(
            derive_seed(config.master_seed, _STREAM_MSG * _STRIDE + trial))

        # true symbol indices: pilots everywhere, then per-subchannel codewords
        s_true = np.zeros(total, dtype=np.int64)
        # each codebook's generator is seeded once and rewound to its start
        # for the decode and the re-draw after an error
        books = [None] + [np.random.PCG64(derive_seed(
            config.master_seed, _STREAM_BOOK * _STRIDE + trial * depth + l))
            for l in range(1, depth)]
        starts = [None] + [book.state for book in books[1:]]
        sent = np.zeros(depth, dtype=np.int64)
        codewords = [None] * depth
        data_slots = warm_slots + np.arange(n_k)
        for l in range(1, depth):
            sent[l] = rng_msg.integers(0, sizes[l])
            codewords[l] = codebook_row(const, n_k, books[l], sent[l])
            s_true[data_slots * depth + l] = codewords[l]

        x_phys = sqrt_snr * h * const.points[s_true] + z

        # fading observations, NaN until a time's symbol is decided; the
        # warm-up and pilot symbols are known
        obs = np.full(total, np.nan + 0j)
        known = np.r_[np.arange(warm_slots * depth),
                      np.arange(warm_slots + n_k) * depth]
        obs[known] = x_phys[known] * np.conj(const.points[s_true[known]]) \
            / sqrt_snr

        trial_errs = np.zeros(depth, dtype=bool)
        for l in range(1, depth):
            pred = predictors[l]
            times = data_slots * depth + l
            _, h_ref = prediction_reference(pred, obs, times)
            if h_ref is None:
                h_ref = np.zeros(n_k, dtype=complex)
            x_block = x_phys[times] \
                / math.sqrt(1.0 + config.snr * pred.error_variance)
            codeword = codewords[l]
            block = PscBlock(
                x=x_block, h_hat=h_ref, s=codeword, rho=float(rhos[l]),
                residual_noise=x_block - np.sqrt(rhos[l]) * h_ref
                * const.points[codeword])
            books[l].state = starts[l]
            outcome = decode_seeded(const, int(sizes[l]), books[l], block,
                                    sent_message=int(sent[l]))
            trial_errs[l] = not outcome.correct
            if config.genie or outcome.correct:
                fed_back = codeword
            else:
                books[l].state = starts[l]
                fed_back = codebook_row(const, n_k, books[l],
                                        outcome.chosen_message)
            obs[times] = x_phys[times] * np.conj(const.points[fed_back]) \
                / sqrt_snr

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
    rate_targets = config.rate_fraction * rates
    achieved = float(np.sum(rate_targets * (1.0 - per_err)) / depth)
    return RtReport(
        config=config, rho=rhos, gmi_nats=rates,
        rate_targets=rate_targets, codebook_sizes=sizes,
        per_psc_block_error=per_err, per_psc_ci=per_ci,
        overall_error=float(overall),
        overall_ci=binomial_halfwidth(float(overall), n),
        achieved_rate=achieved,
        budget_met=_within_budget(per_err, per_ci, config.error_target, depth),
        propagation_events=int(propagation),
    )


def _within_budget(errors, cis, error_target, interleave_depth) -> list:
    """The error budget: p <= error_target / interleave_depth + ci, per entry."""
    budget = error_target / interleave_depth
    return [bool(p <= budget + ci) for p, ci in zip(errors, cis)]


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
    return _within_budget(report.per_psc_block_error, report.per_psc_ci,
                          error_target, interleave_depth)
