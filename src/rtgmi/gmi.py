"""Generalized mutual information of a nearest-neighbor-decoded PSK block.

The per-sample log moment generating function of the decoding metric under a
random candidate symbol is

    lam(mu) = (1/n) sum_k log( (1/J) sum_j exp(mu * |x[k] - sqrt(rho) *
              h_hat[k] * theta[j]|^2) ),    mu <= 0,

a convex function with lam(0) = 0, estimated as a time average over one long
block.  The reported rate is sup over mu < 0 of (mu - lam(mu)), located by a
safeguarded Newton search on the zero of its derivative; the value at
mu = -1 is kept alongside because it equals the matched (capacity) rate of
the memoryless channel with the same marginals.  Uncertainty comes from a
64-segment contiguous block bootstrap, which stays valid when the block is
correlated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError
from .psk import PscBlock, PskConstellation
from .utils import block_step, log_mean_exp, sum_rows

DEFAULT_MU_RANGE = (-32.0, -1e-4)
NEWTON_TOL = 1e-6
BOOTSTRAP_SEGMENTS = 64
BOOTSTRAP_RESAMPLES = 200
_CONVEXITY_TOL = 1e-10


@dataclass
class GmiReport:
    mu_star: float
    gmi: float
    g_at_minus_one: float
    lambda_curve: np.ndarray      # rows of (mu, lambda_hat)
    n_samples: int
    ci_halfwidth: float           # 95% half-width for gmi
    g_at_minus_one_ci: float      # 95% half-width for the mu = -1 value
    clamped: bool


class _LogMgfEvaluator:
    """Caches the (J, n) squared-distance table and its per-sample minimum;
    evaluations are O(n*J) each.  Both the table and each evaluation are
    computed a block of columns at a time; every column is independent of
    the others, so the block size does not change a bit."""

    def __init__(self, block: PscBlock, constellation: PskConstellation):
        self.order = constellation.order
        self.n = block.block_length
        self.step = block_step(self.order)
        ref = np.sqrt(block.rho) * block.h_hat
        self.sq = np.empty((self.order, self.n))
        self.dmin = np.empty(self.n)
        for start in range(0, self.n, self.step):
            cols = slice(start, start + self.step)
            diff = block.x[cols] - ref[cols] * constellation.points[:, None]
            self.sq[:, cols] = np.abs(diff) ** 2
            self.dmin[cols] = self.sq[:, cols].min(axis=0)

    def per_sample(self, mu: float) -> np.ndarray:
        """log((1/J) sum_j exp(mu * d[j, k])), max-shifted, evaluated in blocks.

        For mu <= 0 the largest mu * d[j, k] is mu * dmin[k]: rounding is
        monotone, so the shift needs no max over j.  The 1/J sits inside the
        log: at mu = 0 each term is log(J / J), which is exactly 0 for every
        J, so lam(0) = 0 whatever the summation order.
        """
        out = np.empty(self.n)
        for start in range(0, self.n, self.step):
            cols = slice(start, start + self.step)
            out[cols] = log_mean_exp(mu * self.sq[:, cols], mu * self.dmin[cols],
                                     self.order)
        return out

    def moments(self, mu: float):
        """(per_sample(mu), mean lam_k'(mu), mean lam_k''(mu)) in one pass.

        With softmax weights p_j = exp(mu d_j) / sum_i exp(mu d_i) over the
        symbols, lam_k' = sum_j p_j d_j is the weighted mean distance and
        lam_k'' = sum_j p_j (d_j - lam_k')^2 its weighted variance.  The
        per-sample values come from the exponentials per_sample forms, so
        they have its bits.
        """
        out = np.empty(self.n)
        slope = np.empty(self.n)
        curvature = np.empty(self.n)
        for start in range(0, self.n, self.step):
            cols = slice(start, start + self.step)
            sq = self.sq[:, cols]
            top = mu * self.dmin[cols]
            e = np.exp(mu * sq - top)
            total = sum_rows(e)
            out[cols] = top + np.log(total / self.order)
            slope[cols] = sum_rows(e * sq) / total
            dev = sq - slope[cols]
            dev *= dev
            dev *= e
            curvature[cols] = sum_rows(dev) / total
        return out, float(np.mean(slope)), float(np.mean(curvature))

    def lambda_at(self, mu: float) -> float:
        if mu > 0.0:
            raise ValueError("the log-MGF is evaluated at mu <= 0 only")
        return float(np.mean(self.per_sample(mu)))


def lambda_hat(mu: float, block: PscBlock, constellation: PskConstellation) -> float:
    """Time-average log-MGF of the metric at mu (exactly 0 at mu = 0)."""
    return _LogMgfEvaluator(block, constellation).lambda_at(mu)


def _segment_bootstrap_se(values: np.ndarray, rng: np.random.Generator) -> float:
    segments = np.array_split(values, BOOTSTRAP_SEGMENTS)
    means = np.array([float(s.mean()) for s in segments])
    idx = rng.integers(0, BOOTSTRAP_SEGMENTS,
                       size=(BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEGMENTS))
    return float(means[idx].mean(axis=1).std(ddof=1))


def _audit_convexity(curve: np.ndarray):
    mu, lam = curve[:, 0], curve[:, 1]
    for i in range(1, len(mu) - 1):
        w = (mu[i] - mu[i - 1]) / (mu[i + 1] - mu[i - 1])
        chord = (1.0 - w) * lam[i - 1] + w * lam[i + 1]
        if lam[i] > chord + _CONVEXITY_TOL:
            raise NumericalConsistencyError(
                f"log-MGF estimate is non-convex near mu = {mu[i]:g}")


def _newton_search(ev: _LogMgfEvaluator, grid: np.ndarray, i: int):
    """(mu, g(mu), per-sample lam at mu) where a safeguarded Newton search
    for the maximum of g(mu) = mu - lam(mu) around grid point i ends.

    g is concave, so its slope 1 - lam' falls through zero at the maximum,
    which lies between grid[i]'s neighbours.  The search starts at grid[i].
    Each evaluation moves the bracket end on its side of the zero; a Newton
    step (1 - lam') / lam'' that leaves the bracket, or a curvature
    lam'' <= 0, is replaced by bisection.  It ends at the point a step of at
    most NEWTON_TOL reaches, or once the bracket is that narrow; a maximum
    at the end of the range collapses the bracket onto grid[i] itself.
    """
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    mu, moved = float(grid[i]), math.inf
    while True:
        values, slope, curvature = ev.moments(mu)
        if slope < 1.0:
            lo = mu
        else:
            hi = mu
        if moved <= NEWTON_TOL or hi - lo <= NEWTON_TOL:
            return mu, mu - float(np.mean(values)), values
        del values               # one pass's table at a time
        step = (1.0 - slope) / curvature if curvature > 0.0 else math.inf
        nxt = mu + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        moved, mu = abs(nxt - mu), nxt


def gmi(block: PscBlock, constellation: PskConstellation,
        mu_range=DEFAULT_MU_RANGE, curve_points: int = 33,
        seed: int = 0) -> GmiReport:
    """Estimate the achievable rate of the mismatched decoder on this block.

    Maximizes mu - lambda_hat(mu) over the (negative) search range to a
    Newton step or bracket of 1e-6, audits convexity of the sampled log-MGF
    curve, and reports a clamped-at-zero rate with bootstrap confidence
    half-widths.
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not (lo < hi < 0.0):
        raise ValueError("mu range must satisfy lo < hi < 0")
    if curve_points < 1:
        raise ValueError(f"curve_points must be >= 1, got {curve_points}")
    ev = _LogMgfEvaluator(block, constellation)

    grid = -np.logspace(math.log10(-hi), math.log10(-lo), curve_points)
    grid = np.sort(grid)
    curve = np.column_stack([grid, [ev.lambda_at(m) for m in grid]])
    _audit_convexity(curve)

    rates = grid - curve[:, 1]
    i = int(np.argmax(rates))
    mu_star, g_star, at_star = _newton_search(ev, grid, i)
    if rates[i] > g_star:        # never below the best grid point
        mu_star, g_star, at_star = float(grid[i]), float(rates[i]), None
    # one pass at mu = -1 serves both g(-1) and its bootstrap
    at_m1 = ev.per_sample(-1.0)
    g_m1 = -1.0 - float(np.mean(at_m1))
    if g_m1 > g_star:            # -1 may sit outside the searched range
        mu_star, g_star, at_star = -1.0, g_m1, at_m1

    rng = np.random.default_rng(int(seed))
    if at_star is None:
        at_star = ev.per_sample(mu_star)
    se_star = _segment_bootstrap_se(at_star, rng)
    se_m1 = _segment_bootstrap_se(at_m1, rng)
    clamped = g_star < 0.0
    return GmiReport(
        mu_star=float(mu_star),
        gmi=max(float(g_star), 0.0),
        g_at_minus_one=float(g_m1),
        lambda_curve=curve,
        n_samples=ev.n,
        ci_halfwidth=1.96 * se_star,
        g_at_minus_one_ci=1.96 * se_m1,
        clamped=clamped,
    )
