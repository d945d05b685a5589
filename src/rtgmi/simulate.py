"""End-to-end simulation of interleaved recursive decision-directed training.

Channel time is split into L interleaved subchannels; subchannel 0 carries
known pilots and each data subchannel l is decoded in turn, predicting its
fading from noisy observations at the times of already-decoded subchannels
(using the decoded symbols, so decision errors pollute later predictions
unless genie mode substitutes the true symbols).  Each data subchannel's
codebook is sized from its rate, the coherent PSK capacity at its effective
SNR, computed exactly by quadrature; sizes therefore depend on the config
alone, not on the master seed.  A codebook is never stored: each trial
builds a seeded psk.Codebook per data subchannel, decode streams its packed
bytes, and only the sent and the decoded rows are drawn on their own, so
exhaustive decoding time is all that caps the codebook size.

Trials run in batches of 16.  A batch draws its paths in one synthesis pass
(fading.generate_paths), and steps each subchannel l through one prediction,
transmit and feedback pass over (16, time) arrays, with one decode per
trial.  Every trial keeps its own path, noise, message and codebook streams,
and each row is computed with the operations a lone trial uses, so reports
are byte-identical to running the trials one at a time.  Memory holds one
batch, whatever the number of trials.
"""

import math
from dataclasses import dataclass

import numpy as np

from .capacity import ladder_capacities
# perfbench/tracing.py wraps decode, generate_codebook, generate_path, gmi,
# schedule_predictors and synthesize_block_at_rho here; run calls decode and
# schedule_predictors of these, and draws its paths through generate_paths
from .decoder import decode
from .errors import ConfigurationError
from .fading import FadingModel, generate_path, generate_paths  # noqa: F401
from .gmi import gmi  # noqa: F401
from .prediction import (DEFAULT_PREDICTOR_ORDER, prediction_reference,
                         schedule_predictors, schedule_rhos)
from .psk import (Codebook, PscBlock, generate_codebook,  # noqa: F401
                  make_constellation, synthesize_block_at_rho)
from .utils import binomial_halfwidth, complex_normal_rows, derive_seed

MAX_CODEBOOK_SIZE = 1 << 16
_STREAM_PATH = 2
_STREAM_NOISE = 3
_STREAM_BOOK = 4
_STREAM_MSG = 5
_STRIDE = 1 << 20
# trials per batch: a batch's (B, time) arrays and its Clarke product stay a
# few hundred KB at the benchmark points (64 added 6.8 MB of RSS there); no
# report depends on it
_BATCH = 16


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


def _size_codebooks(rate_targets: np.ndarray, block_length: int):
    """Codebook sizes round(exp(t*K)) for the per-subchannel rate targets t
    (nats/symbol); the pilot, subchannel 0, gets none."""
    # sizes stay Python ints until checked against the cap; exp(60) is
    # already far beyond it
    sizes = [0] + [max(round(math.exp(min(t * block_length, 60.0))), 1)
                   for t in rate_targets[1:].tolist()]
    oversized = [l for l, size in enumerate(sizes) if size > MAX_CODEBOOK_SIZE]
    if oversized:
        raise ConfigurationError(
            f"codebook size exceeds {MAX_CODEBOOK_SIZE} for subchannels "
            f"{oversized}; exhaustive decoding is infeasible, reduce "
            f"block_length or rate_fraction")
    return np.array(sizes, dtype=np.int64)


def run(config: SchemeConfig) -> RtReport:
    """Simulate the full scheme and tally per-subchannel block errors.

    Identical configs (same master seed) produce identical reports.  The
    fading path gets a pilot-only warm-up prefix long enough to cover every
    predictor's largest look-back offset, so all subchannels operate in the
    steady state that their effective-SNR values describe.  Trials run in
    batches of _BATCH on their own streams, and the report is byte for byte
    that of running them one at a time.
    """
    depth = config.interleave_depth
    const = make_constellation(config.constellation_order)
    predictors = schedule_predictors(config.model, depth, config.snr,
                                     config.predictor_order)
    rhos = schedule_rhos(predictors)
    # at effective SNR rho_l the nearest-neighbour metric is the matched
    # Gaussian likelihood, so its GMI is exactly the coherent capacity
    rates = ladder_capacities(config.constellation_order, rhos)
    rate_targets = config.rate_fraction * rates
    sizes = _size_codebooks(rate_targets, config.block_length)

    max_offset = max(max(predictors[l].spec.lag_pattern) for l in range(1, depth))
    warm_slots = int(math.ceil(max_offset / depth))

    err_counts = np.zeros(depth, dtype=np.int64)
    overall_count = 0
    propagation = 0
    for first in range(0, config.n_trials, _BATCH):
        trials = range(first, min(first + _BATCH, config.n_trials))
        errs = _trial_errors(config, trials, const, predictors, sizes,
                             warm_slots)
        err_counts += errs.sum(axis=0)
        failed = errs.sum(axis=1)
        overall_count += int(np.count_nonzero(failed))
        # an error after a trial's first one is a propagation event
        propagation += int(np.count_nonzero(failed > 1))

    n = config.n_trials
    per_err = err_counts / n
    per_ci = np.array([binomial_halfwidth(float(p), n) for p in per_err])
    overall = overall_count / n
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


def _trial_errors(config: SchemeConfig, trials: range, const, predictors,
                  sizes, warm_slots: int) -> np.ndarray:
    """(len(trials), L) bool: the subchannels each trial fails to decode.

    Row b is trial trials[b], one row of every (B, time) array.  A trial
    draws its path, noise, messages and codebooks from its own streams and
    is predicted, decoded and fed back as if alone, so its row does not
    depend on the trials that share its batch.
    """
    depth = config.interleave_depth
    n_k = config.block_length
    total = (warm_slots + n_k) * depth
    sqrt_snr = math.sqrt(config.snr)

    def seed(stream, index):
        return derive_seed(config.master_seed, stream * _STRIDE + index)

    h = generate_paths(config.model, total,
                       [seed(_STREAM_PATH, trial) for trial in trials])
    z = complex_normal_rows([np.random.default_rng(seed(_STREAM_NOISE, trial))
                             for trial in trials], total)

    # true symbol indices: pilots everywhere, then per-subchannel codewords
    s_true = np.zeros((len(trials), total), dtype=np.int64)
    sent = np.zeros((len(trials), depth), dtype=np.int64)
    books = []
    data_slots = warm_slots + np.arange(n_k)
    for b, trial in enumerate(trials):
        books.append([None] + [
            Codebook(const, sizes[l], n_k, seed(_STREAM_BOOK, trial * depth + l))
            for l in range(1, depth)])
        rng_msg = np.random.default_rng(seed(_STREAM_MSG, trial))
        for l in range(1, depth):
            sent[b, l] = rng_msg.integers(0, sizes[l])
            s_true[b, data_slots * depth + l] = books[b][l].row(sent[b, l])

    x_phys = sqrt_snr * h * const.points[s_true] + z
    del h, z  # folded into x_phys; not held through the decodes

    # fading observations, NaN until a time's symbol is decided; the
    # warm-up and pilot symbols are known
    obs = np.full(x_phys.shape, np.nan + 0j)
    known = np.r_[np.arange(warm_slots * depth),
                  np.arange(warm_slots + n_k) * depth]
    obs[:, known] = x_phys[:, known] \
        * np.conj(const.points[s_true[:, known]]) / sqrt_snr

    errs = np.zeros((len(trials), depth), dtype=bool)
    for l in range(1, depth):
        pred = predictors[l]
        times = data_slots * depth + l
        _, h_ref = prediction_reference(pred, obs, times)
        if h_ref is None:
            h_ref = np.zeros((len(trials), n_k), dtype=complex)
        x_block = x_phys[:, times] \
            / math.sqrt(1.0 + config.snr * pred.error_variance)
        fed_back = s_true[:, times]
        for b, trial_books in enumerate(books):
            block = PscBlock(x=x_block[b], h_hat=h_ref[b], s=fed_back[b],
                             rho=pred.effective_snr)
            outcome = decode(trial_books[l], block,
                             sent_message=int(sent[b, l]))
            errs[b, l] = not outcome.correct
            if not (config.genie or outcome.correct):
                fed_back[b] = trial_books[l].row(outcome.chosen_message)
        obs[:, times] = x_phys[:, times] * np.conj(const.points[fed_back]) \
            / sqrt_snr
    return errs


def psc_error_budget(error_target: float, interleave_depth: int) -> float:
    """Each subchannel's block-error budget: the overall target split evenly."""
    return error_target / interleave_depth


def _within_budget(errors, cis, error_target, interleave_depth) -> list:
    """Per entry: p <= psc_error_budget(error_target, interleave_depth) + ci."""
    budget = psc_error_budget(error_target, interleave_depth)
    return [bool(p <= budget + ci) for p, ci in zip(errors, cis)]


def budget_check(report: RtReport, error_target: float,
                 interleave_depth: int) -> list:
    """Per-subchannel: is the block-error estimate within budget, CI allowed?

    The per-subchannel budget is psc_error_budget; an estimate passes when
    it does not exceed the budget by more than its binomial 95% half-width.
    """
    if not 0.0 < error_target < 1.0:
        raise ValueError("error target must be in (0, 1)")
    if interleave_depth < 1:
        raise ValueError("interleave depth must be >= 1")
    return _within_budget(report.per_psc_block_error, report.per_psc_ci,
                          error_target, interleave_depth)
