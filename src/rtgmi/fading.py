"""Stationary unit-variance complex Gaussian (Rayleigh) fading models.

Every model fixes the marginal variance at one, so SNR enters only through
the channel equation and never through the fading law itself.  Sampling uses
numpy's seeded Generator (PCG64); replay is bit-exact for a fixed package
version, which is all the determinism contract asks for.

generate_paths draws one path per seed as the rows of one array, each from
its own generator, in one pass of the synthesis (the AR(1) recursion
elementwise across the rows, padded to whole segments, one product per row
block of the Clarke factor, one inverse FFT of the tabulated circulant);
row b is bit for bit the path generate_path draws from seeds[b], since
generate_path is its one-seed case.

Synthesis is numpy alone, so no command loads scipy: the AR(1) recursion is
elementwise, Clarke's J0 is a port of the Cephes rational approximations
and its covariance is factored by the Schur algorithm, and a tabulated
path is one inverse FFT of a circulant embedding.
"""

import cmath
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .utils import block_step, blocks, complex_normal_rows

# exact synthesis takes O(n^2) time, but stores the Schur factor, about n^2 / 2
# float64 (67 MB at n = 4096); longer Clarke paths switch to a ray-sum
# approximation
CHOLESKY_MAX_N = 4096
RAY_COUNT = 128
_PSD_JITTER = 1e-10
# samples per segment of the AR(1) recursion (see _recur)
_SEGMENT = 8


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

    def _factor(self, n: int):
        """The covariance factor at path length n, computed once per n:
        one array, or a tuple of arrays, each of them made read-only.

        The instance keeps the factor of the most recent length only, so
        repeated draws at one length factor once and memory stays at one
        factor per model.  A factorization that raises caches nothing.
        """
        cached = self._cached_factor
        if cached is not None and cached[0] == n:
            return cached[1]
        factor = self._factorize(n)
        for part in factor if isinstance(factor, tuple) else (factor,):
            part.flags.writeable = False
        object.__setattr__(self, "_cached_factor", (n, factor))
        return factor

    def _factorize(self, n: int):
        raise NotImplementedError


@dataclass(frozen=True)
class Ar1Fading(FadingModel):
    """First-order Gauss-Markov fading: h[k] = a*h[k-1] + sqrt(1-a^2)*w[k].

    Paths are drawn padded to whole segments of _SEGMENT samples, which
    _recur runs through.  The pad is drawn after each path's last sample,
    so no sample depends on it.  A batch of several paths whose length is
    not a whole number of segments is copied once, to drop the pad.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")

    def autocorrelation(self, n):
        # Python's float power per lag: numpy's vector power rounds differently
        return np.array([self.alpha ** t for t in range(n)], dtype=complex)

    def _sample(self, n, rngs):
        h = complex_normal_rows(rngs, -(-n // _SEGMENT) * _SEGMENT)
        scale = math.sqrt(1.0 - self.alpha ** 2)
        # h[0] = w[0] stays unscaled: the stationary start h[0] ~ CN(0, 1);
        # row by row, since numpy copies a strided block to scale it
        for row in h:
            row[1:] *= scale
        _recur(h, self.alpha)
        return np.ascontiguousarray(h[:, :n])


def _recur(h: np.ndarray, alpha: float):
    """h[:, k] += alpha * h[:, k - 1] for k = 1, ..., n - 1, in place, on a
    (B, n) array of whole segments of _SEGMENT samples.

    Each segment first runs the recursion from a zero carry, elementwise
    across all rows and segments, a cache block at a time.  The last sample
    of segment m, e[m], is then its segment's share of the end value E[m] =
    alpha^S E[m - 1] + e[m]: the same recursion at alpha^S, which _recur
    solves on the ends, zero-padded to whole segments.  Each E[m] goes back
    to its segment, and sample j < S - 1 of segment m takes alpha^(j + 1)
    E[m - 1].  A sample's arithmetic depends on its index alone, not on n
    or on the number of rows, so a shorter path is a prefix of a longer one
    and each row is the path of its own.  No step is a BLAS call.
    """
    rows, n = h.shape
    segments = h.reshape(rows, -1, _SEGMENT)
    count = segments.shape[1]
    cuts = blocks(count, block_step(rows * _SEGMENT))
    ends = np.zeros((rows, -(-count // _SEGMENT) * _SEGMENT), dtype=h.dtype)
    for block in cuts:
        part = segments[:, block]
        for j in range(1, _SEGMENT):
            part[:, :, j] += alpha * part[:, :, j - 1]
        ends[:, block] = part[:, :, -1]
    if count == 1:                     # one segment: no carry
        return
    _recur(ends, alpha ** _SEGMENT)
    powers = [alpha ** (j + 1) for j in range(_SEGMENT - 1)]
    for block in cuts:
        segments[:, block, -1] = ends[:, block]
        # segment m takes the end of segment m - 1; the first has no carry
        first = max(block.start, 1)
        part = segments[:, first:block.stop]
        carries = ends[:, first - 1:block.stop - 1]
        for j in range(_SEGMENT - 1):
            part[:, :, j] += powers[j] * carries


@dataclass(frozen=True)
class ClarkeFading(FadingModel):
    """Isotropic-scattering fading with autocorrelation J0(2*pi*fd*lag).

    `normalized_doppler` is the maximum Doppler shift in cycles per symbol.
    Paths up to CHOLESKY_MAX_N samples are synthesized exactly by a Cholesky
    factor of the Toeplitz autocorrelation matrix (tiny diagonal jitter keeps
    the numerically band-limited matrix factorizable), which the Schur
    algorithm computes in O(n^2) elementwise numpy steps and stores as row
    blocks of its transpose, without the zeros left of the blocks.  The
    factor is computed once per path length and reused by the instance for
    every further path of that length.  Longer paths use a seeded
    equal-power ray sum with RAY_COUNT rays, whose autocorrelation
    converges to the same Bessel law as the ray count grows.  No Clarke
    path loads scipy.
    """

    normalized_doppler: float

    def __post_init__(self):
        if not 0.0 < self.normalized_doppler <= 0.5:
            raise ValueError(
                f"normalized_doppler must be in (0, 0.5], got {self.normalized_doppler}")

    def autocorrelation(self, n):
        return _j0(2.0 * math.pi * self.normalized_doppler * np.arange(n)).astype(complex)

    def _factorize(self, n):
        # the jitter goes onto r(0), the diagonal of the Toeplitz matrix
        r = self.autocorrelation(n).real.copy()
        r[0] += _PSD_JITTER
        return _schur_factor(r)

    def _sample(self, n, rngs):
        if n <= CHOLESKY_MAX_N:
            # the factor is real: real products with the (n, 2B) float view
            # of the draws, path b in columns 2b and 2b + 1, instead of numpy
            # casting the factor to complex each call.  Block b, rows kb on
            # of U = L', adds U_b' w[kb:kb + m] to samples kb on: the paths
            # are L w without the products of its zero half.  A product sums
            # over a block's rows, at most 181 at the default block size, and
            # rounds alike on one and on two BLAS threads
            # (tests/test_fading.py); the blocks are added in order
            w = complex_normal_rows(rngs, n).view(np.float64)
            w = w.reshape(len(rngs), n, 2).transpose(1, 0, 2).reshape(n, -1)
            first, *rest = self._factor(n)
            paths = first.T @ w[:len(first)]
            start = len(first)
            for block in rest:
                paths[start:] += block.T @ w[start:start + len(block)]
                start += len(block)
            return np.ascontiguousarray(paths.view(np.complex128).T)
        out = np.zeros((len(rngs), n), dtype=complex)
        runs = blocks(n, block_step(RAY_COUNT))
        for path, rng in zip(out, rngs):
            # equal-power rays: arrival angles uniform => Bessel autocorrelation
            angles = rng.uniform(0.0, 2.0 * math.pi, RAY_COUNT)
            phases = rng.uniform(0.0, 2.0 * math.pi, RAY_COUNT)
            dopplers = 2.0 * math.pi * self.normalized_doppler * np.cos(angles)
            # the (n, rays) phase table goes a cache-sized block of rows at a
            # time; each row sums its own rays, so no bit depends on the block
            for run in runs:
                k = np.arange(run.start, run.stop)
                path[run] = np.exp(1j * (k[:, None] * dopplers[None, :]
                                         + phases)).sum(axis=1)
        out /= math.sqrt(RAY_COUNT)
        return out


# Cephes j0, the routine scipy.special.j0 evaluates, with its coefficients
# in its order (highest power first; a leading 1.0 is Cephes' p1evl): on
# [0, 5] the zeros DR1 and DR2 of J0 (in z = x^2) times RP(z)/RQ(z), and
# beyond it the asymptotic form in 25/x^2 at the phase x - pi/4
_J0_DR1 = 5.78318596294678452118e0
_J0_DR2 = 3.04712623436620863991e1
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
          -2.49248344360967716204e14, 9.70862251047306323952e15)
_J0_RQ = (1.0, 4.99563147152651017219e2, 1.73785401676374683123e5,
          4.84409658339962045305e7, 1.11855537045356834862e10,
          2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2,
          1.23953371646414299388e0, 5.44725003058768775090e0,
          8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2,
          1.25352743901058953537e0, 5.47097740330417105182e0,
          8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0,
          -1.95539544257735972385e1, -9.32060152123768231369e1,
          -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (1.0, 6.43178256118178023184e1, 8.56430025976980587198e2,
          3.88240183605401609683e3, 7.24046774195652478189e3,
          5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)
_SQRT_2_OVER_PI = 7.9788456080286535587989e-1


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Horner's rule, highest coefficient first, in Cephes' order of
    operations.  A leading 1.0 stands for p1evl's implied one: 1.0 * x is
    exact, so both of Cephes' evaluators are this one."""
    value = coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        value = value * x + c
    return value


def _j0(x: np.ndarray) -> np.ndarray:
    """The Bessel function J0, elementwise, with the bits of
    scipy.special.j0: the Cephes rational approximations, operation for
    operation."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    near = x <= 5.0
    small = x[near]
    z = small * small
    p = (z - _J0_DR1) * (z - _J0_DR2)
    p = p * _polevl(z, _J0_RP) / _polevl(z, _J0_RQ)
    out[near] = np.where(small < 1e-5, 1.0 - z / 4.0, p)
    far = x[~near]
    w = 5.0 / far
    q = 25.0 / (far * far)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ)
    phase = far - math.pi / 4.0
    p = p * np.cos(phase) - w * q * np.sin(phase)
    out[~near] = p * _SQRT_2_OVER_PI / np.sqrt(far)
    return out


def _schur_factor(r: np.ndarray) -> tuple:
    """The lower Cholesky factor L of the real symmetric Toeplitz matrix T
    with first column r, by the Schur algorithm, as row blocks of U = L'.

    Block b holds rows kb, ..., kb + m - 1 of U from column kb on, as one
    C-order array, with m = block_step(n) (the last block may be shorter):
    the zeros left of the blocks are not stored, those below the diagonal
    within a block are.  With Z the down shift, T - Z T Z' = u u' - v v'
    for the generators u = r / sqrt(r(0)) and v = u with v(0) = 0.  Row k
    of U is u[k:]; then u shifts down one place, and a hyperbolic rotation
    zeroes v[k + 1]: with g = v[k + 1] / u[k + 1] and s = sqrt((1 - g)(1 +
    g)), u <- (u - g v) / s, and v <- s v - g u in the mixed form that
    keeps the factor stable (Bojanczyk, Brent, de Hoog & Sweet, SIAM J.
    Matrix Anal. Appl. 16(1), 1995).  The shifted u is row k of U itself,
    so each rotation writes row k + 1 from row k, into the block that holds
    it, and nothing is copied: an entry's bits do not depend on the blocks.
    Every step is elementwise: no bit depends on the BLAS thread count.
    Raises LinAlgError unless T is positive definite (|g| < 1 at every
    step).
    """
    n = len(r)
    if not r[0] > 0.0:
        raise np.linalg.LinAlgError("Toeplitz matrix is not positive definite")
    factor = tuple(np.zeros((run.stop - run.start, n - run.start))
                   for run in blocks(n, block_step(n)))
    # U[k, k:], a view into the block that holds row k
    rows = [row[i:] for block in factor for i, row in enumerate(block)]
    np.divide(r, math.sqrt(r[0]), out=rows[0])
    v = rows[0].copy()
    v[0] = 0.0
    scratch = np.empty(n)
    # a step costs its numpy calls more than its arithmetic at these n, so
    # the loop holds them to five, with positional outputs
    multiply, subtract = np.multiply, np.subtract
    for k, (row, below) in enumerate(zip(rows[:-1], rows[1:])):
        u, vk, t = row[:-1], v[k + 1:], scratch[k + 1:]
        g = vk.item(0) / u.item(0)
        if not abs(g) < 1.0:
            raise np.linalg.LinAlgError("Toeplitz matrix is not positive definite")
        s = math.sqrt((1.0 - g) * (1.0 + g))
        subtract(u, multiply(vk, g, t), below)
        below /= s
        vk *= s
        vk -= multiply(below, g, t)
    return factor


def _levinson(c: np.ndarray):
    """Levinson's forward recursion on the Hermitian Toeplitz T with first
    column c: per leading section, order k = 0, ..., n - 1, yields
    (c[k], ..., c[1]), bwd and energy, T_k bwd = energy * e_last.  Raises
    LinAlgError unless T is positive definite (an energy <= 1e-300)."""
    if c[0].real <= 0.0:
        raise np.linalg.LinAlgError("matrix not positive definite")
    fwd = np.array([1.0 + 0.0j])   # monic forward predictor: T fwd = energy * e0
    energy = c[0].real
    yield c[:0], fwd, energy
    for k in range(1, len(c)):
        rev = c[k:0:-1]            # c[k], c[k-1], ..., c[1]
        kappa = -(fwd * rev).sum() / energy
        fwd = np.concatenate((fwd, [0.0])) \
            + kappa * np.concatenate(([0.0], np.conj(fwd[::-1])))
        energy *= 1.0 - abs(kappa) ** 2
        if not energy > 1e-300:
            raise np.linalg.LinAlgError("numerically singular Toeplitz system")
        yield rev, np.conj(fwd[::-1]), energy


def whole_lag(t) -> int:
    """int(t) for a whole-number lag; any other lag is refused, not truncated."""
    if int(t) != t:
        raise ValueError(f"lag {t} is not an integer")
    return int(t)


@dataclass(frozen=True)
class TabulatedFading(FadingModel):
    """Fading law given by tabulated autocorrelation values at integer lags.

    Lags must start at 0 (value exactly 1) and ascend; lags the table skips
    read as zero.  A read beyond the largest tabulated lag is rejected.
    The (b + 1) x (b + 1) Toeplitz section, jittered on its diagonal, must
    be positive definite: _levinson, the forward recursion that
    prediction.solve_hermitian_toeplitz also runs, decides it in O(b^2)
    time and O(b) memory, without forming the section or solving a system.
    Path synthesis extends the table by zero correlation beyond its largest
    lag b and embeds that Toeplitz covariance exactly in a circulant (Davies
    & Harte 1987; Wood & Chan 1994): one inverse FFT per path, no scipy.  A
    length whose circulant has an eigenvalue < 0 (the spectrum S < 0 on its
    grid) raises a ValueError on every call, and so does every longer one.
    """

    lags: tuple = field()
    values: tuple = field()

    def __post_init__(self):
        lags = tuple(whole_lag(t) for t in self.lags)
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
        r = np.zeros(lags[-1] + 1, dtype=complex)
        r[list(lags)] = values
        col = r.copy()
        col[0] += _PSD_JITTER
        try:
            for _ in _levinson(col):
                pass
        except np.linalg.LinAlgError:
            raise ValueError("tabulated autocorrelation is not positive semidefinite")
        object.__setattr__(self, "_dense_row", r)

    @classmethod
    def from_csv(cls, path):
        """Load a `lag,re,im` table: the header, then rows of exactly three
        cells, lags ascending from 0."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or [c.strip() for c in rows[0]] != ["lag", "re", "im"]:
            raise ValueError("expected header 'lag,re,im'")
        lags, values = [], []
        for lineno, row in enumerate(rows[1:], 2):
            if not row:
                continue
            try:
                lag, real, imag = row
                lags.append(int(lag))
                values.append(float(real) + 1j * float(imag))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected lag,re,im (an integer and "
                    f"two numbers), got {','.join(row)!r}") from None
        return cls(lags=tuple(lags), values=tuple(values))

    def autocorrelation(self, n):
        if n - 1 > self.lags[-1]:
            raise ValueError(f"lag {n - 1} beyond tabulated range {self.lags[-1]}")
        return self._dense_row[:n].copy()

    def _factorize(self, n):
        return _circulant_root(self._dense_row, n)

    def _sample(self, n, rngs):
        root = self._factor(n)
        w = complex_normal_rows(rngs, len(root))
        w *= root
        return np.fft.ifft(w, norm="ortho")[:, :n].copy()


def _circulant_root(r: np.ndarray, n: int) -> np.ndarray:
    """sqrt(eigenvalues) of the smallest power-of-two circulant, m >= max(n,
    b + 1) + b, with first column r(0 ... b), zeros, conj(r(b ... 1)) and
    _PSD_JITTER on r(0); the b + 1 keeps r(b) off its conjugate if n <= b."""
    b = len(r) - 1
    m = 1 << (max(n, b + 1) + b - 1).bit_length()
    col = np.concatenate([r, np.zeros(m - 2 * b - 1), np.conj(r[:0:-1])])
    col[0] += _PSD_JITTER
    lam = np.fft.fft(col).real         # the spectrum of r at f = j / m
    if lam.min() < 0.0:
        raise ValueError("zero-extended table is not positive semidefinite: "
                         f"its circulant has eigenvalue {lam.min():.3g}")
    return np.sqrt(lam)


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
    number.  One seed adds no copy to the path; an AR(1) batch of several
    seeds whose n is not a whole number of segments is copied once.
    """
    if n < 1:
        raise ValueError("path length must be positive")
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    return model._sample(int(n), rngs)
