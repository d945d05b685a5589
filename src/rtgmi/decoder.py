"""Nearest-neighbor decoding with a predicted-fading reference.

The decoder scores a candidate codeword by the average squared distance
between the received block and sqrt(rho) * h_hat * theta[candidate], i.e. it
treats the channel as memoryless Rayleigh fading with Gaussian noise whether
or not that is true.  Because PSK symbols have unit modulus, the quadratic
term of the distance is candidate-independent, so the block score reduces to
a correlation; decode() exploits that identity, metric() keeps the direct
form, and the two are tested against each other.  decode() streams a seeded
codebook's bytes and sums the correlations a byte (p symbols) at a time
from one table per block, so it reads W = ceil(K / p) entries per
candidate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .psk import Codebook, PscBlock, PskConstellation, group_table
from .utils import binomial_halfwidth, block_step, complex_normal

_MAX_TILT = 64.0
_TILT_BISECTIONS = 60


@dataclass
class DecodeOutcome:
    chosen_message: int
    metrics: np.ndarray          # every candidate's metric, by message index
    correct: bool                # None when the sent message is unknown
    chosen_metric: float
    runner_up_metric: float


@dataclass(frozen=True)
class UndercutEstimate:
    probability: float
    ci_halfwidth: float
    n_trials: int


def metric(constellation: PskConstellation, codeword: np.ndarray,
           block: PscBlock) -> float:
    """Average squared residual of the block against one candidate codeword.

    Summed with fsum (correctly rounded), so reordering the block's time
    samples cannot change the value by even one ulp.
    """
    codeword = np.asarray(codeword)
    if len(codeword) != block.block_length:
        raise ValueError("codeword length must match the block")
    ref = np.sqrt(block.rho) * block.h_hat * constellation.points[codeword]
    sq = np.abs(block.x - ref) ** 2
    return math.fsum(sq.tolist()) / len(sq)


def decode(codebook: Codebook, block: PscBlock, sent_message=None) -> DecodeOutcome:
    """Exhaustive minimum-metric decoding with lowest-index tie-breaking.

    Every candidate's metric is reported; the runner-up is the second
    smallest of them (a tie with the winner included), inf for one codeword.
    Each block of rows is read from the codebook's byte stream into one
    reused buffer and scored from the bytes while it is in cache; no symbol
    is unpacked.
    """
    if codebook.block_length != block.block_length:
        raise ValueError("codebook block length must match the block")
    stream = codebook.stream()
    scorer = _Scorer(codebook.constellation, block)
    metrics = np.empty(codebook.size)
    buffer = np.empty((scorer.step(codebook.size), scorer.groups),
                      dtype=np.uint8)
    for start in range(0, codebook.size, len(buffer)):
        rows = buffer[:min(len(buffer), codebook.size - start)]
        stream.fill(rows.reshape(-1))
        scorer.score(rows, metrics[start:start + len(rows)])
    return _outcome(metrics, sent_message)


class _Scorer:
    """Candidate metrics of one block, from per-byte correlation sums.

    |x - sqrt(rho) h theta|^2 = |x|^2 + rho |h|^2 - 2 Re{conj(x) sqrt(rho) h theta},
    so a candidate's metric is base - 2 * (mean of its correlations
    corr[k, symbol]).  A codebook byte carries p symbols, so the (K, J)
    correlation table is folded into psk.group_table's (W, 256) table of
    per-byte sums, and a candidate's score is the sum of its W entries,
    divided by K.
    """

    def __init__(self, constellation: PskConstellation, block: PscBlock):
        self.base = float(np.mean(np.abs(block.x) ** 2)) \
            + block.rho * float(np.mean(np.abs(block.h_hat) ** 2))
        u = np.sqrt(block.rho) * np.conj(block.x) * block.h_hat
        self.table = group_table(
            np.real(u[:, None] * constellation.points[None, :]))
        self.groups = len(self.table)
        # flat table index of (g, byte 0)
        self.offsets = np.arange(self.groups) * 256
        self.block_length = block.block_length

    def step(self, size: int) -> int:
        """Candidates per block: utils.BLOCK_ELEMENTS table entries, whose
        index and gathered buffers (512 KiB) stay in a 2 MiB L2 cache.  At
        QPSK, K = 240, blocks of 2^13, 2^14 and 2^16 entries all decoded
        1270 candidates slower than 2^15 (Xeon, 1 BLAS thread)."""
        return min(block_step(self.groups), size)

    def score(self, rows: np.ndarray, out: np.ndarray):
        """Write the metrics of candidates whose rows of W codebook bytes
        are `rows` into `out`."""
        picked = np.take(self.table, rows + self.offsets)
        np.maximum(self.base - 2.0 * (picked.sum(axis=-1) / self.block_length),
                   0.0, out=out)


def _outcome(metrics: np.ndarray, sent_message) -> DecodeOutcome:
    best_idx = int(np.argmin(metrics))      # first minimum: lowest index wins
    best = float(metrics[best_idx])
    second = float(np.partition(metrics, 1)[1]) if len(metrics) > 1 else math.inf
    correct = None if sent_message is None else bool(best_idx == int(sent_message))
    return DecodeOutcome(chosen_message=best_idx, metrics=metrics, correct=correct,
                         chosen_metric=best, runner_up_metric=second)


def _tilted_law(corr: np.ndarray, t: float):
    """Per-position symbol law proportional to exp(t * corr[k, j]).

    Returns the (K, J) probabilities and the summed log-MGF
    Lambda(t) = sum_k log((1/J) sum_j exp(t * corr[k, j])); the 1/J sits
    inside the log, so t = 0 gives the uniform law and Lambda(0) = 0 exactly.
    """
    a = t * corr
    top = a.max(axis=1)
    e = np.exp(a - top[:, None])
    total = e.sum(axis=1)
    log_mgf = math.fsum((top + np.log(total / corr.shape[1])).tolist())
    return e / total[:, None], log_mgf


def _tilt_for_score(corr: np.ndarray, target: float) -> float:
    """t >= 0 at which the tilted mean score equals `target`, by bisection.

    0 when `target` does not exceed the uniform law's mean score.  When no
    finite t reaches it (the sent symbol is the best at every position) the
    search stops once t times the widest per-position score spread reaches
    _MAX_TILT; every t >= 0 leaves the weighted estimate unbiased.
    """
    def mean_score(t):
        q, _ = _tilted_law(corr, t)
        return float((q * corr).sum(axis=1).mean())

    spread = float((corr.max(axis=1) - corr.min(axis=1)).max())
    if spread == 0.0 or target <= mean_score(0.0):
        return 0.0
    lo, hi = 0.0, 1.0 / spread
    while mean_score(hi) < target and hi * spread < _MAX_TILT:
        lo, hi = hi, 2.0 * hi
    for _ in range(_TILT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mean_score(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def pairwise_undercut_probability(constellation: PskConstellation, rho: float,
                                  block_length: int, n_trials: int,
                                  seed: int) -> UndercutEstimate:
    """P{metric of an independent random codeword <= metric of the sent one}.

    One memoryless channel realization is drawn from the seed and held fixed;
    the estimate runs over fresh wrong codewords, matching the
    codebook-ensemble view in which the channel output is conditioned on.
    Exact score ties (probability zero except in degenerate settings such as
    rho = 0, or a wrong codeword equal to the sent one) count one half.

    Wrong codewords are drawn by exponential tilting (Sadowsky & Bucklew
    1990): position k takes symbol j with probability proportional to
    exp(t * corr[k, j]), where corr[k, j] is that symbol's correlation score
    (a larger block score is a smaller metric), and t >= 0 makes the tilted
    mean score equal the sent score, so about half the draws undercut.  Each
    draw is weighted by its likelihood ratio against the uniform law,
    exp(Lambda(t) - t * K * score), which keeps the estimate unbiased for
    any t and its relative error bounded as K grows, where plain sampling
    records no hits once P is far below 1/n_trials.  When the sent score
    does not exceed the uniform mean score, t = 0: plain sampling with unit
    weights.

    The CI is 1.96 weighted standard errors.  As in binomial_halfwidth its
    variance is floored at one pseudo-count, here of the largest weight a hit
    can carry, exp(Lambda(t) - t * K * sent_score) (the Chernoff bound, 1 at
    t = 0), so no tally reports a zero-width interval.
    """
    if rho < 0.0 or block_length < 1 or n_trials < 1:
        raise ValueError("need rho >= 0, positive block length and trial count")
    rng = np.random.default_rng(int(seed))
    s = rng.integers(0, constellation.order, size=block_length)
    h_hat = complex_normal(rng, block_length)
    residual = complex_normal(rng, block_length)
    x = np.sqrt(rho) * h_hat * constellation.points[s] + residual

    u = np.sqrt(rho) * np.conj(x) * h_hat
    corr = np.real(u[:, None] * constellation.points[None, :])
    rows = np.arange(block_length)
    sent_score = float(corr[rows, s].mean())

    t = _tilt_for_score(corr, sent_score)
    q, log_mgf = _tilted_law(corr, t)
    cdf = np.cumsum(q, axis=1)
    offsets = rows * constellation.order      # flat index of (k, symbol 0)
    # weight / bound = exp(-t K (score - sent_score)): at most 1 on every hit
    scaled = np.empty(n_trials)
    step = block_step(block_length)
    for start in range(0, n_trials, step):
        # rng.random fills rows in sequence, so the block size leaves the
        # stream unchanged
        m = min(n_trials - start, step)
        draws = rng.random((m, block_length))
        cand = np.tile(offsets, (m, 1))
        for edge in cdf[:, :-1].T:            # inverse-CDF symbol draw
            cand += draws >= edge
        scores = np.take(corr, cand).mean(axis=-1)
        # larger correlation score means smaller distance metric
        hit = np.where(scores > sent_score, 1.0,
                       np.where(scores == sent_score, 0.5, 0.0))
        scaled[start:start + m] = hit * np.exp(
            -t * block_length * np.maximum(scores - sent_score, 0.0))
    bound = math.exp(log_mgf - t * block_length * sent_score)
    se = math.sqrt(float(scaled.var()) / n_trials)
    # binomial_halfwidth(0, n) is the half-width of one pseudo-count in n
    return UndercutEstimate(
        probability=bound * float(scaled.mean()),
        ci_halfwidth=bound * max(1.96 * se, binomial_halfwidth(0.0, n_trials)),
        n_trials=int(n_trials))
