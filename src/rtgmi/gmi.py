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
Beside the table only j* is held, one byte per sample for J <= 256: dmin is
summed once for its mean and recomputed from j* where a per-sample value
needs it.  The whole lambda curve is one sweep over that table, a cache
block at a time.  Every mean is the math.fsum of np.sums over fixed runs of
_CHUNK samples, so its bits depend neither on the block size nor on which mu
values are swept together.

The reported rate is sup over mu < 0 of (mu - lam(mu)), located by a
safeguarded Newton search on the zero of its derivative; the value at
mu = -1 is kept alongside because it equals the matched (capacity) rate of
the memoryless channel with the same marginals.  Uncertainty comes from a
64-segment contiguous block bootstrap, which stays valid when the block is
correlated; its segment means at mu* and at mu = -1 are filled together, a
segment at a time, so the block needs at least 64 samples and no per-sample
vector is ever held.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError
from .psk import PscBlock, PskConstellation
from .utils import MAX_GRID_POINTS, block_step, blocks, sum_rows

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


def _nearest_gaps(x, ref, twice, pick, gaps, nearest):
    """Write the gaps u and the nearest symbols j* of one run of columns,
    given its samples x and its references sqrt(rho) h_hat."""
    order = len(twice)
    # complex products out of place, left operand first: numpy computes
    # a * b and b * a with different roundings, may swap the operands of a
    # large temporary on the right, and rounds an in-place product of one
    # element unlike its vector loop
    c = np.multiply(np.conj(x), ref)
    re, im = c.real.copy(), c.imag.copy()
    # twice the correlations (doubling is exact), so top - corr is u
    corr = re * twice.real[:, None] - im * twice.imag[:, None]
    top = corr.max(axis=0)
    coords = pick @ _first_maximum(corr, top)
    turned, sines = coords[:order - 1], coords[order - 1:-1]
    turned *= re
    sines *= im
    turned -= sines
    np.subtract(top, turned, out=gaps)
    nearest[...] = coords[-1]


class _LogMgfEvaluator:
    """The (J - 1, n) table of nonzero gaps u and the nearest symbols j*.

    Column k holds u[j, k] for j = j* + 1, ..., j* + J - 1 (mod J), where j*
    is the first symbol of largest correlation, so the nearest symbol's zero
    gap is left out.  Its row order is the order the exponentials are added
    in.  j* is held, a byte per sample for J <= 256, in place of the
    distance dmin: the build sums dmin over its _CHUNK runs for mean(dmin),
    and a fill recomputes it run by run with the build's operations, so
    with its bits.  The build's runs are whole _CHUNK columns, about half a
    cache block; the lambda sweeps go a cache block of whole chunks at a
    time.  A mean is the math.fsum of the np.sums of fixed _CHUNK-column
    runs, over n, so neither the block size nor the number of mu values
    swept together changes a bit.
    """

    def __init__(self, block: PscBlock, constellation: PskConstellation):
        order = constellation.order
        self.order = order
        self.n = block.block_length
        self.step = _CHUNK * max(1, block_step(order) // _CHUNK)
        self.gaps = np.empty((order - 1, self.n))
        self.nearest = np.empty(self.n, dtype=np.min_scalar_type(order - 1))
        self.points = constellation.points
        self.x, self.h_hat = block.x, block.h_hat
        self.root = np.sqrt(block.rho)
        twice = 2.0 * constellation.points
        # a one-hot column of the nearest symbol selects, by an exact product,
        # twice the coordinates of symbols j* + 1, ..., j* + J - 1, and j*
        turn = (np.arange(order) + np.arange(1, order)[:, None]) % order
        pick = np.concatenate([twice.real[turn], twice.imag[turn],
                               np.arange(order)[None]])
        # the build's temporaries are about twice an evaluation's, so it goes
        # half a block at a time, and each block's die with its call (a
        # quarter block, smaller still, took 25% longer at QPSK); its runs
        # are whole chunks, so the chunk sums of dmin are those of one vector
        self.build = _CHUNK * max(1, self.step // (2 * _CHUNK))
        sums = []
        for run in blocks(self.n, self.build):
            _nearest_gaps(self.x[run], self.root * self.h_hat[run], twice,
                          pick, self.gaps[:, run], self.nearest[run])
            sums.append(_chunk_sums(self._run_distances(run)))
        self.mean_dmin = self._mean(sums)

    def _run_distances(self, run: slice) -> np.ndarray:
        """dmin = |x - sqrt(rho) h_hat theta[j*]|^2 over one run of
        columns, with the build's operations.

        Every step is elementwise, and the complex product is out of place,
        left operand first, as in _nearest_gaps, so a run of one column
        rounds as the vector loop does: a column's bits do not depend on the
        run it is computed in.
        """
        closest = np.multiply(np.take(self.points, self.nearest[run]),
                              self.root * self.h_hat[run])
        squares = np.subtract(self.x[run], closest, out=closest)
        squares = squares.view(np.float64)
        squares *= squares
        return squares[0::2] + squares[1::2]

    def distances(self) -> np.ndarray:
        """dmin[k] = |x[k] - sqrt(rho) h_hat[k] theta[j*]|^2 over the block,
        recomputed with the bits the build summed."""
        return np.concatenate([self._run_distances(run)
                               for run in blocks(self.n, self.build)])

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

    def _fill(self, mus, start: int, out: np.ndarray):
        """Write the per-sample terms at mus[i] of columns start, ...,
        start + width - 1 into row i of out, (len(mus), width), a run of the
        build's width at a time; a run's distances are recomputed once for
        all mus, and a column's bits do not depend on what is filled with
        it."""
        for run in blocks(start + out.shape[1], self.build, start):
            dmin = self._run_distances(run)
            gaps = self.gaps[:, run]
            e = np.empty(gaps.shape)
            cols = slice(run.start - start, run.stop - start)
            for mu, row in zip(mus, out[:, cols]):
                terms = self._log_terms(gaps, mu, e)[1]
                np.multiply(dmin, mu, out=row)
                row += terms

    def per_sample(self, mu: float) -> np.ndarray:
        """mu * dmin[k] + log((1 + sum_r exp(mu * u[r, k])) / J), k < n."""
        out = np.empty((1, self.n))
        self._fill([mu], 0, out)
        return out[0]

    def segment_means(self, mu) -> np.ndarray:
        """The means of per_sample(mu) over the BOOTSTRAP_SEGMENTS runs of
        np.array_split, bit for bit, with one segment held at a time.

        For a sequence of mu values, row i holds those of mu[i], from one
        pass that recomputes each distance once.
        """
        mus = np.atleast_1d(mu).tolist()
        size, longer = divmod(self.n, BOOTSTRAP_SEGMENTS)
        run = np.empty((len(mus), size + (longer > 0)))
        means = np.empty((len(mus), BOOTSTRAP_SEGMENTS))
        start = 0
        for i in range(BOOTSTRAP_SEGMENTS):
            values = run[:, :size + (i < longer)]
            self._fill(mus, start, values)
            for row, mean in zip(values, means):
                mean[i] = row.mean()
            start += values.shape[1]
        return means if np.ndim(mu) else means[0]

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
        for cols in blocks(self.n, self.step):
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
        terms, slopes, curvatures = zip(*(
            self._moment_sums(self.gaps[:, cols], mu)
            for cols in blocks(self.n, self.step)))
        return (mu * self.mean_dmin + self._mean(terms),
                self.mean_dmin + self._mean(slopes), self._mean(curvatures))

    def _moment_sums(self, gaps: np.ndarray, mu: float):
        """The _CHUNK sums of lam_k - mu dmin, lam_k' - dmin and lam_k''
        over one block of the table; its arrays die with the call."""
        e = np.empty(gaps.shape)
        total, logs = self._log_terms(gaps, mu, e)
        mean = sum_rows(e * gaps)
        mean /= total
        dev = gaps - mean
        dev *= dev
        dev *= e
        spread = sum_rows(dev)
        spread += mean * mean
        spread /= total
        return _chunk_sums(logs), _chunk_sums(mean), _chunk_sums(spread)


def lambda_hat(mu: float, block: PscBlock, constellation: PskConstellation) -> float:
    """Time-average log-MGF of the metric at mu (exactly 0 at mu = 0)."""
    return _LogMgfEvaluator(block, constellation).lambda_at(mu)


def _segment_bootstrap_se(means: np.ndarray, rng: np.random.Generator) -> float:
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


def check_gmi_inputs(mu_range, curve_points: int, block_length: int):
    """(lo, hi), the mu range as floats, once gmi's bounds hold: a finite
    range lo < hi < 0, 1 to MAX_GRID_POINTS curve points, and a block of
    at least BOOTSTRAP_SEGMENTS samples; a ValueError names the first that
    fails.  It reads no block, so a caller can check before synthesis."""
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not (math.isfinite(lo) and lo < hi < 0.0):
        raise ValueError("mu range must be finite and satisfy lo < hi < 0, "
                         f"got ({lo:g}, {hi:g})")
    if not 1 <= curve_points <= MAX_GRID_POINTS:
        raise ValueError(f"curve_points must be in [1, {MAX_GRID_POINTS}], "
                         f"got {curve_points}")
    if block_length < BOOTSTRAP_SEGMENTS:
        raise ValueError(
            f"gmi needs a block of at least {BOOTSTRAP_SEGMENTS} samples for "
            f"its {BOOTSTRAP_SEGMENTS}-segment bootstrap, got {block_length}")
    return lo, hi


def gmi(block: PscBlock, constellation: PskConstellation,
        mu_range=DEFAULT_MU_RANGE, curve_points: int = 33,
        seed: int = 0) -> GmiReport:
    """Estimate the achievable rate of the mismatched decoder on this block.

    Maximizes mu - lambda_hat(mu) over the (negative) search range to a
    Newton step or bracket of 1e-6, audits convexity of the sampled log-MGF
    curve, and reports a clamped-at-zero rate with bootstrap confidence
    half-widths.  Inputs outside check_gmi_inputs' bounds are refused.
    """
    lo, hi = check_gmi_inputs(mu_range, curve_points, block.block_length)
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
    se_star, se_m1 = (_segment_bootstrap_se(means, rng)
                      for means in ev.segment_means([mu_star, -1.0]))
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
