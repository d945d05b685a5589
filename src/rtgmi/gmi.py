"""Generalized mutual information of a nearest-neighbor-decoded PSK block.

The per-sample log moment generating function of the decoding metric under a
random candidate symbol is

    lam(mu) = (1/n) sum_k log( (1/J) sum_j exp(mu * |x[k] - sqrt(rho) *
              h_hat[k] * theta[j]|^2) ),    mu <= 0,

a convex function with lam(0) = 0, estimated as a time average over one long
block.  The reported rate is sup over mu < 0 of (mu - lam(mu)), located by a
golden-section search; the value at mu = -1 is kept alongside because it
equals the matched (capacity) rate of the memoryless channel with the same
marginals.  Uncertainty comes from a 64-segment contiguous block bootstrap,
which stays valid when the block is correlated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError
from .psk import PscBlock, PskConstellation
from .utils import compensated_mean, golden_section_maximize, log_mean_exp

DEFAULT_MU_RANGE = (-32.0, -1e-4)
GOLDEN_TOL = 1e-6
BOOTSTRAP_SEGMENTS = 64
BOOTSTRAP_RESAMPLES = 200
_CONVEXITY_TOL = 1e-10
_EVAL_CHUNK = 1 << 17


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

    def curve_to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("mu,lambda_hat\n")
            for mu, lam in self.lambda_curve:
                fh.write(f"{float(mu)!r},{float(lam)!r}\n")


class _LogMgfEvaluator:
    """Caches the (J, n) squared-distance table and its per-sample minimum;
    evaluations are O(n*J) each."""

    def __init__(self, block: PscBlock, constellation: PskConstellation):
        self.order = constellation.order
        self.n = block.block_length
        diff = block.x[None, :] \
            - np.sqrt(block.rho) * block.h_hat * constellation.points[:, None]
        self.sq = np.abs(diff) ** 2
        self.dmin = self.sq.min(axis=0)

    def per_sample(self, mu: float) -> np.ndarray:
        """log((1/J) sum_j exp(mu * d[j, k])), max-shifted, evaluated in chunks.

        For mu <= 0 the largest mu * d[j, k] is mu * dmin[k]: rounding is
        monotone, so the shift needs no max over j.  The 1/J sits inside the
        log: at mu = 0 each term is log(J / J), which is exactly 0 for every
        J, so lam(0) = 0 whatever the summation order.
        """
        out = np.empty(self.n)
        for start in range(0, self.n, _EVAL_CHUNK):
            stop = start + _EVAL_CHUNK
            out[start:stop] = log_mean_exp(mu * self.sq[:, start:stop],
                                           mu * self.dmin[start:stop],
                                           self.order)
        return out

    def lambda_at(self, mu: float) -> float:
        if mu > 0.0:
            raise ValueError("the log-MGF is evaluated at mu <= 0 only")
        return float(compensated_mean(self.per_sample(mu)))

    def rate_at(self, mu: float) -> float:
        return mu - self.lambda_at(mu)


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


def gmi(block: PscBlock, constellation: PskConstellation,
        mu_range=DEFAULT_MU_RANGE, curve_points: int = 33,
        seed: int = 0) -> GmiReport:
    """Estimate the achievable rate of the mismatched decoder on this block.

    Maximizes mu - lambda_hat(mu) over the (negative) search range to a
    bracket of 1e-6, audits convexity of the sampled log-MGF curve, and
    reports a clamped-at-zero rate with bootstrap confidence half-widths.
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

    # coarse argmax on the grid, then golden-section inside the bracket
    rates = grid - curve[:, 1]
    i = int(np.argmax(rates))
    bracket = (grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
    if bracket[1] - bracket[0] > GOLDEN_TOL:
        mu_star, g_star = golden_section_maximize(ev.rate_at, bracket[0],
                                                  bracket[1], tol=GOLDEN_TOL)
    else:
        mu_star, g_star = float(grid[i]), float(rates[i])
    if rates[i] > g_star:
        mu_star, g_star = float(grid[i]), float(rates[i])
    g_m1 = ev.rate_at(-1.0)
    if g_m1 > g_star:            # -1 may sit outside the searched range
        mu_star, g_star = -1.0, g_m1

    rng = np.random.default_rng(int(seed))
    se_star = _segment_bootstrap_se(ev.per_sample(mu_star), rng)
    se_m1 = _segment_bootstrap_se(ev.per_sample(-1.0), rng)
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
