"""Shared numerical helpers: stream seeding, complex Gaussian draws, careful sums."""

import math

import numpy as np

# 64-bit golden-ratio increment; distinct stream indices give well-spread seeds
SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# beyond this length, plain accumulation is replaced by compensated chunk sums
COMPENSATED_THRESHOLD = 10_000
_CHUNK = 4096

# elements per block of a streamed kernel: 256 KiB of float64, so a block and
# its few temporaries fit a 2 MiB per-core L2 cache
BLOCK_ELEMENTS = 1 << 15


def derive_seed(master_seed: int, index: int) -> int:
    """Per-stream seed: master_seed XOR (index * golden-ratio stride), mod 2^64."""
    return (int(master_seed) ^ ((int(index) * SEED_STRIDE) & _MASK64)) & _MASK64


def block_step(width: int) -> int:
    """Rows (or columns) of `width` elements that make one block."""
    return max(1, BLOCK_ELEMENTS // width)


def complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. CN(0, 1) samples.

    Real and imaginary parts are drawn interleaved, so the first n' samples of
    a length-n draw coincide with a length-n' draw from a same-state generator.
    """
    z = rng.standard_normal((n, 2))
    # numpy divides a complex array by a real scalar as a product with the
    # reciprocal, so scaling the real pairs by 1/sqrt(2) gives the same bits
    z *= 1.0 / math.sqrt(2.0)
    return z.view(np.complex128).reshape(n)


def compensated_mean(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Mean along `axis`, with Neumaier-compensated combination of chunk sums.

    Short axes fall back to np.mean; long accumulations (> 10^4 terms) sum
    fixed-size chunks pairwise and combine the partial sums with a running
    compensation term, keeping rounding error independent of length.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.shape[axis]
    if n == 0:
        raise ValueError("mean of empty axis")
    if n <= COMPENSATED_THRESHOLD:
        return np.mean(v, axis=axis)
    v = np.moveaxis(v, axis, -1)
    full = n - n % _CHUNK
    # an empty tail sums to 0.0, which leaves the compensated total unchanged
    sums = np.concatenate(
        [v[..., :full].reshape(v.shape[:-1] + (-1, _CHUNK)).sum(axis=-1),
         v[..., full:].sum(axis=-1, keepdims=True)], axis=-1)
    rows = sums.reshape(-1, sums.shape[-1]).tolist()
    totals = np.array([_neumaier_sum(row) for row in rows])
    return totals.reshape(v.shape[:-1]) / n


def _neumaier_sum(terms) -> float:
    """Compensated running sum of Python floats, in the given order."""
    total = 0.0
    comp = 0.0
    for s in terms:
        t = total + s
        if abs(total) >= abs(s):
            comp += (total - t) + s
        else:
            comp += (s - t) + total
        total = t
    return total + comp


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0, adding the rows in the order numpy's pairwise
    summation adds the elements of a contiguous axis of the same length.

    Below 8 terms that is one running sum; up to 128, eight interleaved
    accumulators combined as a tree, then the leftover terms; beyond 128,
    the two halves (split at a multiple of 8) summed the same way.
    """
    n = len(a)
    if n < 8:
        return a.sum(axis=0)   # numpy adds the rows of axis 0 one at a time
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    blocks = n - n % 8
    acc = a[:8].copy()
    for i in range(8, blocks, 8):
        acc += a[i:i + 8]
    out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) \
        + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for i in range(blocks, n):
        out += a[i]
    return out


def log_mean_exp(a: np.ndarray, top: np.ndarray, count: int = 1) -> np.ndarray:
    """top + log((1/count) sum_j exp(a[j] - top)), the sum over axis 0.

    `top` is the column maximum of `a` (or anything that bounds it), so the
    exponentials cannot overflow.  The symbol axis comes first because
    numpy reduces a short trailing axis slowly; the sum order follows
    numpy's along a trailing axis, so both layouts give the same bits.  A
    count of 1 divides exactly.
    """
    return top + np.log(_pairwise_sum(np.exp(a - top)) / count)


def golden_section_maximize(fun, lo: float, hi: float, tol: float = 1e-6):
    """Maximize a unimodal function on [lo, hi] to bracket width <= tol.

    Returns (x_best, f(x_best)) at the best evaluated interior point, so the
    reported value is an actual function evaluation, never an interpolation.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError("need lo < hi")
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fun(x)
    n_steps = int(math.ceil(math.log(tol / h) / math.log(INV_PHI)))
    c = b - INV_PHI * h
    d = a + INV_PHI * h
    yc = fun(c)
    yd = fun(d)
    for _ in range(n_steps - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h = INV_PHI * h
            c = b - INV_PHI * h
            yc = fun(c)
        else:
            a, c, yc = c, d, yd
            h = INV_PHI * h
            d = a + INV_PHI * h
            yd = fun(d)
    if yc > yd:
        return c, yc
    return d, yd


def binomial_halfwidth(p_hat: float, n: int, z: float = 1.96) -> float:
    """Normal-approximation half-width for a binomial proportion.

    The variance is floored at that of one pseudo-count so an empty or full
    tally never reports a zero-width interval.
    """
    if n <= 0:
        raise ValueError("need at least one trial")
    floor = (1.0 / n) * (1.0 - 1.0 / n)
    return z * math.sqrt(max(p_hat * (1.0 - p_hat), floor) / n)
