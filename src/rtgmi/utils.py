"""Shared numerical helpers: stream seeding, complex Gaussian draws, log-sum-exp."""

import math

import numpy as np

# 64-bit golden-ratio increment; distinct stream indices give well-spread seeds
SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

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


def log_mean_exp(a: np.ndarray, top: np.ndarray, count: int = 1) -> np.ndarray:
    """top + log((1/count) sum_j exp(a[j] - top)), the sum over axis 0.

    `top` is the column maximum of `a` (or anything that bounds it), so the
    exponentials cannot overflow.  The symbol axis comes first because
    numpy reduces a short trailing axis slowly.  numpy adds the rows in
    index order, except that it sums a single column pairwise, which may
    round differently from eight rows on.  A count of 1 divides exactly.
    """
    return top + np.log(np.exp(a - top).sum(axis=0) / count)


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
