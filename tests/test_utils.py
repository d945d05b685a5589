import math

import numpy as np
import pytest

from rtgmi.utils import (binomial_halfwidth, compensated_mean, complex_normal,
                         derive_seed, golden_section_maximize)


def test_derive_seed_range_and_determinism():
    a = derive_seed(12345, 7)
    assert a == derive_seed(12345, 7)
    assert 0 <= a < 2 ** 64
    # distinct indices map to distinct streams for a fixed master seed
    seen = {derive_seed(99, i) for i in range(1000)}
    assert len(seen) == 1000


def test_derive_seed_zero_index_mixes_nothing():
    assert derive_seed(42, 0) == 42


def test_complex_normal_moments():
    rng = np.random.default_rng(5)
    z = complex_normal(rng, 200_000)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    # circular symmetry: E[z^2] = 0
    assert abs(np.mean(z ** 2)) < 0.01


def test_complex_normal_prefix_stable():
    # drawing n samples then extending the same stream reproduces the prefix
    a = complex_normal(np.random.default_rng(3), 100)
    b = complex_normal(np.random.default_rng(3), 5000)
    assert np.array_equal(a, b[:100])


def test_complex_normal_is_the_complex_quotient():
    # the one-pass scaling gives the bits of the complex division it replaced
    z = np.random.default_rng(13).standard_normal((100_003, 2))
    want = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
    assert np.array_equal(complex_normal(np.random.default_rng(13), 100_003),
                          want)


def test_compensated_mean_matches_fsum():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(50_000) * 1e6
    want = math.fsum(x.tolist()) / len(x)
    got = float(compensated_mean(x))
    assert got == pytest.approx(want, rel=0, abs=1e-6)


def _looped_compensated_mean(x):
    """One np.sum per 4096-chunk, combined by a Neumaier loop over arrays."""
    total = np.zeros(x.shape[:-1])
    comp = np.zeros(x.shape[:-1])
    for start in range(0, x.shape[-1], 4096):
        s = x[..., start:start + 4096].sum(axis=-1)
        t = total + s
        big = np.abs(total) >= np.abs(s)
        comp += np.where(big, (total - t) + s, (s - t) + total)
        total = t
    return (total + comp) / x.shape[-1]


@pytest.mark.parametrize("shape", [(10_001,), (50_000,), (1_000_000,),
                                   (1 << 20,), (3, 20_481)])
def test_compensated_mean_equals_the_chunk_loop(shape):
    x = np.random.default_rng(len(shape) + shape[-1]).standard_normal(shape)
    x *= 1e3
    assert np.array_equal(compensated_mean(x), _looped_compensated_mean(x))


def test_compensated_mean_small_input_is_plain_mean():
    x = np.array([1.0, 2.0, 4.0])
    assert float(compensated_mean(x)) == float(np.mean(x))


def test_compensated_mean_axis():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 20_000))
    got = compensated_mean(x, axis=-1)
    want = x.mean(axis=-1)
    assert np.allclose(got, want, atol=1e-12)


def test_golden_section_quadratic():
    x, f = golden_section_maximize(lambda t: -(t - 0.3) ** 2, -4.0, 2.0,
                                   tol=1e-9)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert f == pytest.approx(0.0, abs=1e-12)


def test_golden_section_returns_an_evaluated_point():
    calls = []

    def fun(t):
        calls.append(t)
        return -abs(t - 1.5)

    x, f = golden_section_maximize(fun, 0.0, 4.0, tol=1e-7)
    assert x in calls
    assert f == -abs(x - 1.5)


def test_binomial_halfwidth_hand_values():
    # z * sqrt(p(1-p)/n) with the Wilson-free plain normal approximation
    assert binomial_halfwidth(0.5, 100) == pytest.approx(1.96 * 0.05)
    assert binomial_halfwidth(0.0, 100) > 0.0   # never reports certainty
    assert binomial_halfwidth(1.0, 50) > 0.0
