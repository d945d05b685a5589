"""Shared numerical helpers: stream seeding, complex Gaussian draws, log-sum-exp."""

import math

import numpy as np

# 64-bit golden-ratio increment; distinct stream indices give well-spread seeds
SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

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
    return complex_normal_rows((rng,), n)[0]


def complex_normal_rows(rngs, n: int) -> np.ndarray:
    """(len(rngs), n): row b is complex_normal(rngs[b], n), drawn in place."""
    z = np.empty((len(rngs), n, 2))
    for row, rng in zip(z, rngs):
        rng.standard_normal(out=row)
    # numpy divides a complex array by a real scalar as a product with the
    # reciprocal, so scaling the real pairs by 1/sqrt(2) gives the same bits
    z *= 1.0 / math.sqrt(2.0)
    return z.view(np.complex128).reshape(len(rngs), n)


def sum_rows(a: np.ndarray) -> np.ndarray:
    """a[0] + a[1] + ... over axis 0, in row order at every width.

    numpy adds the rows of a table one after another, except that it sums
    a table of one element per row pairwise, which rounds differently from
    eight rows on; accumulate adds in row order there too.
    """
    if a.size == len(a):
        return np.add.accumulate(a)[-1]
    return a.sum(axis=0)


def log_mean_exp(a: np.ndarray, top: np.ndarray, count: int = 1) -> np.ndarray:
    """top + log((1/count) sum_j exp(a[j] - top)), the sum over axis 0.

    `top` is the column maximum of `a` (or anything that bounds it), so the
    exponentials cannot overflow.  The symbol axis comes first because
    numpy reduces a short trailing axis slowly.  The rows are added in index
    order (sum_rows), so a column's bits do not depend on how many columns
    share its table.  A count of 1 divides exactly.
    """
    return top + np.log(sum_rows(np.exp(a - top)) / count)


def binomial_halfwidth(p_hat: float, n: int, z: float = 1.96) -> float:
    """Normal-approximation half-width for a binomial proportion.

    The variance is floored at that of one pseudo-count so an empty or full
    tally never reports a zero-width interval.
    """
    if n <= 0:
        raise ValueError("need at least one trial")
    floor = (1.0 / n) * (1.0 - 1.0 / n)
    return z * math.sqrt(max(p_hat * (1.0 - p_hat), floor) / n)
