"""Nearest-neighbor decoding with a predicted-fading reference.

The decoder scores a candidate codeword by the average squared distance
between the received block and sqrt(rho) * h_hat * theta[candidate], i.e. it
treats the channel as memoryless Rayleigh fading with Gaussian noise whether
or not that is true.  Because PSK symbols have unit modulus, the quadratic
term of the distance is candidate-independent, so the block score reduces to
a correlation; decode() exploits that identity, metric() keeps the direct
form, and the two are tested against each other.  decode() is one
function: it builds the block's table, streams a seeded codebook's bytes
and sums the correlations a byte (p symbols) at a time, so it reads
W = ceil(K / p) entries per candidate, then picks the first minimum.  Its
outcome holds every candidate's metric, the chosen message and whether it
was the sent one.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .psk import Codebook, PscBlock, PskConstellation, group_table
from .utils import binomial_halfwidth, block_step, blocks, complex_normal

_MAX_TILT = 64.0
_TILT_BISECTIONS = 60


@dataclass
class DecodeOutcome:
    chosen_message: int
    metrics: np.ndarray          # every candidate's metric, by message index
    correct: bool                # None when the sent message is unknown


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

    |x - sqrt(rho) h theta|^2 = |x|^2 + rho |h|^2 - 2 Re{conj(x) sqrt(rho) h theta},
    so a candidate's metric is max(base - 2 * (mean of its correlations
    corr[k, symbol]), 0).  A codebook byte carries p symbols, so the (K, J)
    correlation table is folded into psk.group_table's (W, 256) table of
    per-byte sums, and a candidate's score is the sum of its W entries,
    divided by K.  Each block of rows is read from the codebook's byte
    stream into a workspace kept from call to call and scored in place
    while it is in cache; no symbol is unpacked, and no buffer of the block
    is allocated.  A sent message that is not a row of the book is refused.
    """
    if codebook.block_length != block.block_length:
        raise ValueError("codebook block length must match the block")
    if sent_message is not None and not 0 <= sent_message < codebook.size:
        raise ValueError(f"sent message {sent_message} is not a row of a "
                         f"{codebook.size}-row codebook")
    base = float(np.mean(np.abs(block.x) ** 2)) \
        + block.rho * float(np.mean(np.abs(block.h_hat) ** 2))
    table = group_table(_correlations(
        codebook.constellation, block.rho, block.x, block.h_hat))
    offsets = np.arange(len(table)) * 256    # flat table index of (g, byte 0)
    stream = codebook.stream()
    metrics = np.empty(codebook.size)
    workspace = _workspace(len(table))
    for run in blocks(codebook.size, len(workspace[0])):
        rows, index, picked = (a[:run.stop - run.start] for a in workspace)
        out = metrics[run]
        stream.fill(rows.reshape(-1))
        # every index is in range, so np.take may wrap: under its default
        # mode='raise' numpy gathers into a temporary and copies it over,
        # and 'wrap' gathered faster than 'clip' (medians 49 vs 56 µs a block)
        np.add(rows, offsets, out=index)
        np.take(table, index, out=picked, mode="wrap")
        np.sum(picked, axis=-1, out=out)
        out /= block.block_length
        out *= 2.0
        np.subtract(base, out, out=out)
        np.maximum(out, 0.0, out=out)
    chosen = int(np.argmin(metrics))        # first minimum: lowest index wins
    return DecodeOutcome(
        chosen_message=chosen, metrics=metrics,
        correct=None if sent_message is None else chosen == int(sent_message))


@functools.lru_cache(maxsize=4)
def _workspace(groups: int):
    """(rows, index, picked): the (step, W) uint8 codebook bytes, intp table
    indices and float64 gathered entries that decode reuses for every block
    of candidates whose rows are W bytes, so its steady state allocates
    none of them.  Every decode in the process shares them: two threads
    must not decode at once.

    A block holds step = utils.BLOCK_ELEMENTS // W candidates, whose index
    and gathered buffers (512 KiB) stay in a 2 MiB L2 cache.  At QPSK,
    K = 240, blocks of 2^13, 2^14 and 2^16 entries all decoded 1270
    candidates slower than 2^15 (Xeon, 1 BLAS thread).
    """
    shape = (block_step(groups), groups)
    return (np.empty(shape, dtype=np.uint8), np.empty(shape, dtype=np.intp),
            np.empty(shape))


def _correlations(constellation: PskConstellation, rho: float,
                  x: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """(K, J) correlation scores Re{conj(x[k]) sqrt(rho) h_hat[k] theta_j}."""
    u = np.sqrt(rho) * np.conj(x) * h_hat
    return np.real(u[:, None] * constellation.points[None, :])


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

    corr = _correlations(constellation, rho, x, h_hat)
    rows = np.arange(block_length)
    sent_score = float(corr[rows, s].mean())

    t = _tilt_for_score(corr, sent_score)
    q, log_mgf = _tilted_law(corr, t)
    cdf = np.cumsum(q, axis=1)
    offsets = rows * constellation.order      # flat index of (k, symbol 0)
    # weight / bound = exp(-t K (score - sent_score)): at most 1 on every hit
    scaled = np.empty(n_trials)
    for run in blocks(n_trials, block_step(block_length)):
        # rng.random fills rows in sequence, so the block size leaves the
        # stream unchanged
        m = run.stop - run.start
        draws = rng.random((m, block_length))
        cand = np.tile(offsets, (m, 1))
        for edge in cdf[:, :-1].T:            # inverse-CDF symbol draw
            cand += draws >= edge
        scores = np.take(corr, cand).mean(axis=-1)
        # larger correlation score means smaller distance metric
        hit = np.where(scores > sent_score, 1.0,
                       np.where(scores == sent_score, 0.5, 0.0))
        scaled[run] = hit * np.exp(
            -t * block_length * np.maximum(scores - sent_score, 0.0))
    bound = math.exp(log_mgf - t * block_length * sent_score)
    se = math.sqrt(float(scaled.var()) / n_trials)
    # binomial_halfwidth(0, n) is the half-width of one pseudo-count in n
    return UndercutEstimate(
        probability=bound * float(scaled.mean()),
        ci_halfwidth=bound * max(1.96 * se, binomial_halfwidth(0.0, n_trials)),
        n_trials=int(n_trials))
