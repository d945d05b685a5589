"""Generalized mutual information of a nearest-neighbor-decoded PSK block.

The per-sample log moment generating function of the decoding metric under a
random candidate symbol is

    lam_k(mu) = log( (1/J) sum_j exp(mu * d[j, k]) ),    mu <= 0,
    d[j, k] = |x[k] - sqrt(rho) * h_hat[k] * theta[j]|^2,

and lam(mu), its time average over one long block, is convex with
lam(0) = 0.  d is never formed.  With c[k] = conj(x[k]) sqrt(rho) h_hat[k]
and corr[j, k] = Re(c[k] theta[j]), d[j, k] = |x[k]|^2 + rho |h_hat[k]|^2 -
2 corr[j, k] for |theta[j]| = 1, so the gaps

    u[j, k] = d[j, k] - dmin[k] = 2 (max_i corr[i, k] - corr[j, k]) >= 0

come from the correlations without that cancellation, and the nearest
symbol j* has a gap of exactly 0.  Hence

    lam(mu) = mu * mean_k dmin[k]
              + mean_k log( (1 + sum_{j != j*} exp(mu * u[j, k])) / J ),

J - 1 exponentials per sample, read from a (J - 1, n) table built once.
The whole lambda curve is one sweep over that table, a cache block at a
time.  Every mean is the math.fsum of np.sums over fixed runs of _CHUNK
samples, so its bits depend neither on the block size nor on which mu values
are swept together.

The reported rate is sup over mu < 0 of (mu - lam(mu)), located by a
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
from .utils import block_step, sum_rows

DEFAULT_MU_RANGE = (-32.0, -1e-4)
NEWTON_TOL = 1e-6
BOOTSTRAP_SEGMENTS = 64
BOOTSTRAP_RESAMPLES = 200
_CONVEXITY_TOL = 1e-10
_CHUNK = 1 << 10         # columns per partial sum of every mean


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


def _chunk_sums(values: np.ndarray) -> np.ndarray:
    """np.sum of each run of _CHUNK values; the last run may be shorter."""
    full = len(values) - len(values) % _CHUNK
    sums = values[:full].reshape(-1, _CHUNK).sum(axis=1)
    if full < len(values):
        sums = np.append(sums, values[full:].sum())
    return sums


def _first_maximum(corr: np.ndarray, top: np.ndarray) -> np.ndarray:
    """(J, B) one-hot of the first row of corr that reaches top, as 0.0/1.0."""
    hits = corr == top
    seen = hits[0].copy()
    for row in hits[1:]:
        row &= ~seen
        seen |= row
    return hits.astype(np.float64)


class _LogMgfEvaluator:
    """The (J - 1, n) table of nonzero gaps u and the nearest distances dmin.

    Column k holds u[j, k] for j = j* + 1, ..., j* + J - 1 (mod J), where j*
    is the first symbol of largest correlation, so the nearest symbol's zero
    gap is left out.  Its row order is the order the exponentials are added
    in.  The table and every evaluation run a cache block of whole _CHUNK
    columns at a time.  A mean is the math.fsum of the np.sums of fixed
    _CHUNK-column runs, over n, so neither the block size nor the number of
    mu values swept together changes a bit.
    """

    def __init__(self, block: PscBlock, constellation: PskConstellation):
        order = constellation.order
        self.order = order
        self.n = block.block_length
        self.step = _CHUNK * max(1, block_step(order) // _CHUNK)
        self.gaps = np.empty((order - 1, self.n))
        self.dmin = np.empty(self.n)
        twice = 2.0 * constellation.points
        # a one-hot column of the nearest symbol selects, by an exact product,
        # twice the coordinates of symbols j* + 1, ..., j* + J - 1 and the
        # coordinates of j* itself
        turn = (np.arange(order) + np.arange(1, order)[:, None]) % order
        pick = np.concatenate([twice.real[turn], twice.imag[turn],
                               constellation.points.real[None],
                               constellation.points.imag[None]])
        root = np.sqrt(block.rho)
        sums = []
        for cols in self._blocks():
            x = block.x[cols]
            ref = root * block.h_hat[cols]
            # complex products in place, left operand first: numpy computes
            # a * b and b * a with different roundings, and may swap the
            # operands of a large temporary on the right
            c = np.conj(x)
            c *= ref
            re, im = c.real.copy(), c.imag.copy()
            # twice the correlations (doubling is exact), so top - corr is u
            corr = re * twice.real[:, None] - im * twice.imag[:, None]
            top = corr.max(axis=0)
            coords = pick @ _first_maximum(corr, top)
            turned, sines = coords[:order - 1], coords[order - 1:-2]
            turned *= re
            sines *= im
            turned -= sines
            np.subtract(top, turned, out=self.gaps[:, cols])
            nearest = np.empty(len(x), dtype=complex)
            nearest.real, nearest.imag = coords[-2], coords[-1]
            nearest *= ref
            squares = np.subtract(x, nearest, out=nearest).view(np.float64)
            squares *= squares
            dmin = np.add(squares[0::2], squares[1::2], out=self.dmin[cols])
            sums.append(_chunk_sums(dmin))
        self.mean_dmin = self._mean(sums)

    def _blocks(self):
        return (slice(start, start + self.step)
                for start in range(0, self.n, self.step))

    def _mean(self, sums) -> float:
        return math.fsum(np.concatenate(sums).tolist()) / self.n

    def _log_terms(self, gaps: np.ndarray, mu: float, e: np.ndarray):
        """(total, log(total / J)) per column, total = 1 + sum_r exp(mu u[r]);
        e keeps the exponentials.

        The rows are added in order (sum_rows), then the 1, so a column's
        bits do not depend on the block.  At mu = 0 the total is exactly J.
        """
        np.multiply(gaps, mu, out=e)
        np.exp(e, out=e)
        total = sum_rows(e)
        total += 1.0
        return total, np.log(total / self.order)

    def per_sample(self, mu: float) -> np.ndarray:
        """mu * dmin[k] + log((1 + sum_r exp(mu * u[r, k])) / J), k < n."""
        out = np.empty(self.n)
        for cols in self._blocks():
            gaps = self.gaps[:, cols]
            terms = self._log_terms(gaps, mu, np.empty(gaps.shape))[1]
            np.multiply(self.dmin[cols], mu, out=out[cols])
            out[cols] += terms
        return out

    def lambdas(self, mus) -> list:
        """lam(mu) for every mu of `mus` (all <= 0) in one sweep of the table.

        lam(mu) = mu * mean(dmin) + mean_k log((1 + sum_r exp(mu u)) / J);
        the 1/J sits inside the log, so at mu = 0 every term is log(J / J),
        exactly 0, and lam(0) = 0 for every J and n.
        """
        mus = [float(mu) for mu in mus]
        if any(mu > 0.0 for mu in mus):
            raise ValueError("the log-MGF is evaluated at mu <= 0 only")
        sums = [[] for _ in mus]
        for cols in self._blocks():
            gaps = self.gaps[:, cols]
            e = np.empty(gaps.shape)
            for mu, terms in zip(mus, sums):
                terms.append(_chunk_sums(self._log_terms(gaps, mu, e)[1]))
        return [mu * self.mean_dmin + self._mean(terms)
                for mu, terms in zip(mus, sums)]

    def lambda_at(self, mu: float) -> float:
        return self.lambdas([mu])[0]

    def moments(self, mu: float):
        """(lam(mu), mean lam_k'(mu), mean lam_k''(mu)) in one pass.

        With softmax weights p_j = exp(mu d_j) / sum_i exp(mu d_i) over the
        symbols, lam_k' = sum_j p_j d_j = dmin + sum_j p_j u_j is the
        weighted mean distance and lam_k'' = sum_j p_j (u_j - sum_i p_i
        u_i)^2 its weighted variance; the nearest symbol's zero gap has
        weight 1 / total.  lam(mu) has the bits of lambda_at(mu).
        """
        terms, slopes, curvatures = [], [], []
        for cols in self._blocks():
            gaps = self.gaps[:, cols]
            e = np.empty(gaps.shape)
            total, logs = self._log_terms(gaps, mu, e)
            terms.append(_chunk_sums(logs))
            mean = sum_rows(e * gaps)
            mean /= total
            slopes.append(_chunk_sums(mean))
            dev = gaps - mean
            dev *= dev
            dev *= e
            spread = sum_rows(dev)
            spread += mean * mean
            spread /= total
            curvatures.append(_chunk_sums(spread))
        return (mu * self.mean_dmin + self._mean(terms),
                self.mean_dmin + self._mean(slopes), self._mean(curvatures))


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
    """(mu, g(mu)) where a safeguarded Newton search for the maximum of
    g(mu) = mu - lam(mu) around grid point i ends.

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
        lam, slope, curvature = ev.moments(mu)
        if slope < 1.0:
            lo = mu
        else:
            hi = mu
        if moved <= NEWTON_TOL or hi - lo <= NEWTON_TOL:
            return mu, mu - lam
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
    if not (math.isfinite(lo) and lo < hi < 0.0):
        raise ValueError("mu range must be finite and satisfy lo < hi < 0")
    if curve_points < 1:
        raise ValueError(f"curve_points must be >= 1, got {curve_points}")
    ev = _LogMgfEvaluator(block, constellation)

    grid = -np.logspace(math.log10(-hi), math.log10(-lo), curve_points)
    grid = np.sort(grid)
    *curve_lambdas, lam_m1 = ev.lambdas([*grid, -1.0])
    curve = np.column_stack([grid, curve_lambdas])
    _audit_convexity(curve)

    rates = grid - curve[:, 1]
    i = int(np.argmax(rates))
    mu_star, g_star = _newton_search(ev, grid, i)
    if rates[i] > g_star:        # never below the best grid point
        mu_star, g_star = float(grid[i]), float(rates[i])
    g_m1 = -1.0 - lam_m1
    if g_m1 > g_star:            # -1 may sit outside the searched range
        mu_star, g_star = -1.0, g_m1

    rng = np.random.default_rng(int(seed))
    # one per-sample vector at a time: each is dropped after its bootstrap
    se_star, se_m1 = (_segment_bootstrap_se(ev.per_sample(mu), rng)
                      for mu in (mu_star, -1.0))
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
