"""Stationary unit-variance complex Gaussian (Rayleigh) fading models.

Every model fixes the marginal variance at one, so SNR enters only through
the channel equation and never through the fading law itself.  Sampling uses
numpy's seeded Generator (PCG64); replay is bit-exact for a fixed package
version, which is all the determinism contract asks for.

generate_paths draws one path per seed as the rows of one array, each from
its own generator, in one pass of the synthesis (a multi-right-hand-side
AR(1) solve, one product with the Clarke factor, one banded product); row b
is bit for bit the path generate_path draws from seeds[b], since
generate_path is its one-seed case.
"""

import cmath
import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztbtrs
from scipy.special import j0

from .utils import block_step, complex_normal_rows

# exact Cholesky synthesis above this length is too expensive (O(n^3) time,
# O(n^2) memory); longer Clarke paths switch to a ray-sum approximation
CHOLESKY_MAX_N = 4096
DEFAULT_RAY_COUNT = 128
_PSD_JITTER = 1e-10


class FadingModel:
    """Base class: a wide-sense stationary unit-variance complex fading law."""

    def autocorrelation(self, n: int) -> np.ndarray:
        """r(t) = E{h[k + t] conj(h[k])} for 0 <= t < n; r(-t) = conj(r(t))."""
        raise NotImplementedError

    def _sample(self, n: int, rngs) -> np.ndarray:
        """(len(rngs), n): row b is a path drawn from generator rngs[b]."""
        raise NotImplementedError

    # (n, factor) of the most recent path length, set by _factor
    _cached_factor = None

    def _factor(self, n: int) -> np.ndarray:
        """The covariance factor at path length n, computed once per n.

        The instance keeps the factor of the most recent length only, so
        repeated draws at one length factor once and memory stays at one
        factor per model.  A factorization that raises caches nothing.
        """
        cached = self._cached_factor
        if cached is not None and cached[0] == n:
            return cached[1]
        factor = self._factorize(n)
        factor.flags.writeable = False
        object.__setattr__(self, "_cached_factor", (n, factor))
        return factor

    def _factorize(self, n: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Ar1Fading(FadingModel):
    """First-order Gauss-Markov fading: h[k] = a*h[k-1] + sqrt(1-a^2)*w[k]."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")

    def autocorrelation(self, n):
        # Python's float power per lag: numpy's vector power rounds differently
        return np.array([self.alpha ** t for t in range(n)], dtype=complex)

    def _sample(self, n, rngs):
        h = complex_normal_rows(rngs, n)
        if self.alpha == 0.0:
            return h
        # h[0] = w[0] stays unscaled: the stationary start h[0] ~ CN(0, 1)
        h[:, 1:] *= math.sqrt(1.0 - self.alpha ** 2)
        # the recursion as a unit lower-bidiagonal solve, h[k] - a*h[k-1] =
        # x[k], in place a block at a time, one right-hand side per path
        # (the columns of the Fortran-order h.T); each block's first row takes
        # a*h[k-1] from the block before, the very product and sum a
        # whole-path solve forms there, so the bits do not depend on the
        # block size or on the number of paths
        step = block_step(2)
        ab = np.empty((min(step, n), 2), dtype=complex).T  # Fortran order
        ab[0] = 1.0
        ab[1] = -self.alpha
        cols = h.T
        for start in range(0, n, step):
            x = cols[start:start + step]
            if start:
                x[0] += self.alpha * cols[start - 1]
            solved, info = ztbtrs(ab[:, :len(x)], x, uplo="L", diag="U",
                                  overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"ztbtrs returned info = {info}")
            if solved is not x:  # a block of several paths is not contiguous
                x[...] = solved
        return h


@dataclass(frozen=True)
class ClarkeFading(FadingModel):
    """Isotropic-scattering fading with autocorrelation J0(2*pi*fd*lag).

    `normalized_doppler` is the maximum Doppler shift in cycles per symbol.
    Paths up to CHOLESKY_MAX_N samples are synthesized exactly by a Cholesky
    factor of the Toeplitz autocorrelation matrix (tiny diagonal jitter keeps
    the numerically band-limited matrix factorizable).  The factor is
    computed once per path length and reused by the instance for every
    further path of that length.  Longer paths use a seeded equal-power ray
    sum with `ray_count` rays, whose autocorrelation converges to the same
    Bessel law as the ray count grows.
    """

    normalized_doppler: float
    ray_count: int = DEFAULT_RAY_COUNT

    def __post_init__(self):
        if not 0.0 < self.normalized_doppler <= 0.5:
            raise ValueError(
                f"normalized_doppler must be in (0, 0.5], got {self.normalized_doppler}")
        if self.ray_count < 64:
            raise ValueError("need at least 64 rays")

    def autocorrelation(self, n):
        return j0(2.0 * math.pi * self.normalized_doppler * np.arange(n)).astype(complex)

    def _factorize(self, n):
        r = self.autocorrelation(n).real
        cov = scipy.linalg.toeplitz(r) + _PSD_JITTER * np.eye(n)
        return scipy.linalg.cholesky(cov, lower=True)

    def _sample(self, n, rngs):
        if n <= CHOLESKY_MAX_N:
            # the factor is real: one real product with the (n, 2B) float
            # view of the draws, path b in columns 2b and 2b + 1, instead of
            # numpy casting the factor to complex each call
            w = complex_normal_rows(rngs, n).view(np.float64)
            w = w.reshape(len(rngs), n, 2).transpose(1, 0, 2).reshape(n, -1)
            paths = (self._factor(n) @ w).view(np.complex128)
            return np.ascontiguousarray(paths.T)
        out = np.zeros((len(rngs), n), dtype=complex)
        for path, rng in zip(out, rngs):
            # equal-power rays: arrival angles uniform => Bessel autocorrelation
            angles = rng.uniform(0.0, 2.0 * math.pi, self.ray_count)
            phases = rng.uniform(0.0, 2.0 * math.pi, self.ray_count)
            dopplers = 2.0 * math.pi * self.normalized_doppler * np.cos(angles)
            # chunked so the (chunk, rays) phase table stays small
            for k0 in range(0, n, 65536):
                k = np.arange(k0, min(k0 + 65536, n))
                path[k] = np.exp(1j * (k[:, None] * dopplers[None, :]
                                       + phases)).sum(axis=1)
        out /= math.sqrt(self.ray_count)
        return out


@dataclass(frozen=True)
class TabulatedFading(FadingModel):
    """Fading law given by tabulated autocorrelation values at integer lags.

    Lags must start at 0 (value exactly 1) and ascend; lags the table skips
    read as zero.  A read beyond the largest tabulated lag is rejected.
    Path synthesis extends the table by zero correlation beyond the maximum
    lag, which makes the covariance banded; the banded extension is not
    guaranteed positive semidefinite for every table, and synthesis raises a
    ValueError when its factorization fails.  The banded Cholesky factor is
    computed once per path length and reused by the instance for every
    further path of that length; a failed factorization is not kept, so
    every call at that length raises again.
    """

    lags: tuple = field()
    values: tuple = field()

    def __post_init__(self):
        lags = tuple(int(t) for t in self.lags)
        values = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)
        if len(lags) != len(values) or not lags:
            raise ValueError("need matching non-empty lag and value tables")
        if lags[0] != 0 or any(b <= a for a, b in zip(lags, lags[1:])):
            raise ValueError("lags must ascend from 0")
        bad = [lag for lag, v in zip(lags, values) if not cmath.isfinite(v)]
        if bad:
            raise ValueError(f"autocorrelation at lag {bad[0]} is not finite")
        if values[0] != 1.0 + 0.0j:
            raise ValueError("autocorrelation at lag 0 must equal 1 exactly")
        if any(abs(v) > 1.0 + 1e-12 for v in values):
            raise ValueError("autocorrelation magnitudes cannot exceed 1")
        # positive-semidefiniteness up to the max tabulated lag, by Cholesky
        r = np.zeros(lags[-1] + 1, dtype=complex)
        r[list(lags)] = values
        try:
            np.linalg.cholesky(scipy.linalg.toeplitz(r) + _PSD_JITTER * np.eye(len(r)))
        except np.linalg.LinAlgError:
            raise ValueError("tabulated autocorrelation is not positive semidefinite")
        object.__setattr__(self, "_dense_row", r)

    @classmethod
    def from_csv(cls, path):
        """Load a `lag,re,im` table (header required, lags ascending from 0)."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or [c.strip() for c in rows[0]] != ["lag", "re", "im"]:
            raise ValueError("expected header 'lag,re,im'")
        lags, values = [], []
        for lineno, row in enumerate(rows[1:], 2):
            if not row:
                continue
            try:
                lags.append(int(row[0]))
                values.append(float(row[1]) + 1j * float(row[2]))
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}:{lineno}: expected lag,re,im (an integer and "
                    f"two numbers), got {','.join(row)!r}") from None
        return cls(lags=tuple(lags), values=tuple(values))

    def autocorrelation(self, n):
        if n - 1 > self.lags[-1]:
            raise ValueError(f"lag {n - 1} beyond tabulated range {self.lags[-1]}")
        return self._dense_row[:n].copy()

    def _factorize(self, n):
        band = min(self.lags[-1], n - 1)
        # lower banded storage: ab[d, j] = cov[j + d, j] = r(d), zero beyond table
        ab = np.repeat(self.autocorrelation(band + 1)[:, None], n, axis=1)
        ab[0, :] += _PSD_JITTER
        try:
            return scipy.linalg.cholesky_banded(ab, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "zero-extended tabulated autocorrelation is not positive "
                "semidefinite at this path length") from exc

    def _sample(self, n, rngs):
        fac = self._factor(n)
        w = complex_normal_rows(rngs, n)
        out = np.zeros_like(w)
        for d in range(len(fac)):  # h = L @ w with L lower-banded, per row
            out[:, d:] += fac[d, :n - d] * w[:, :n - d]
        return out


def generate_path(model: FadingModel, n: int, seed: int) -> np.ndarray:
    """Draw n consecutive samples of the fading process.

    Parameters
    ----------
    model : FadingModel
        The stationary law to sample from.
    n : int
        Number of samples; must be positive.
    seed : int
        Seed for the path's private generator.  Same (model, n, seed) gives an
        identical path; for recursion-based models a shorter request with the
        same seed is a prefix of a longer one.
    """
    return generate_paths(model, n, (seed,))[0]


def generate_paths(model: FadingModel, n: int, seeds) -> np.ndarray:
    """Draw one n-sample path per seed, as the rows of a (len(seeds), n) array.

    Row b is bit for bit generate_path(model, n, seeds[b]): each path has its
    own generator, and the synthesis treats the rows alike whatever their
    number.  One seed adds no copy to the path.
    """
    if n < 1:
        raise ValueError("path length must be positive")
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    return model._sample(int(n), rngs)
