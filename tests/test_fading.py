import importlib
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.special import j0

from rtgmi import fading
from rtgmi.fading import (CHOLESKY_MAX_N, Ar1Fading, ClarkeFading,
                          TabulatedFading, generate_path, generate_paths)
from rtgmi.utils import block_step, complex_normal, complex_normal_rows
from test_prediction import _GRID_MAX_LAG, gapped_complex_table


def bessel_j0_series(x: float, terms: int = 48) -> float:
    """Power series oracle: sum_m (-1)^m (x^2/4)^m / (m!)^2."""
    q = x * x / 4.0
    term = 1.0
    total = 1.0
    for m in range(1, terms):
        term *= -q / (m * m)
        total += term
    return total


def empirical_autocorr(h: np.ndarray, lag: int) -> complex:
    n = len(h) - lag
    return complex(np.vdot(h[lag:], h[:n]) / n)


def test_ar1_autocorrelation_hand_values():
    r = Ar1Fading(0.8).autocorrelation(4)
    assert r.dtype == complex and len(r) == 4
    assert r[0] == 1.0
    assert r[3] == pytest.approx(0.8 ** 3)
    # real, so r(-t) = conj(r(t)) = r(t)
    assert not r.imag.any()


def test_ar1_rejects_bad_alpha():
    with pytest.raises(ValueError):
        Ar1Fading(1.0)
    with pytest.raises(ValueError):
        Ar1Fading(-0.1)


def test_ar1_path_is_stationary_from_first_sample():
    path = generate_path(Ar1Fading(0.95), 200, seed=4)
    first = np.abs(np.array([generate_path(Ar1Fading(0.95), 1, seed=s)[0]
                             for s in range(4000)])) ** 2
    # the very first sample already has unit power, no burn-in transient
    assert float(first.mean()) == pytest.approx(1.0, abs=0.05)
    assert len(path) == 200


def test_ar1_empirical_correlation():
    alpha = 0.9
    h = generate_path(Ar1Fading(alpha), 200_000, seed=10)
    assert float(np.mean(np.abs(h) ** 2)) == pytest.approx(1.0, abs=0.02)
    r1 = empirical_autocorr(h, 1)
    assert r1.real == pytest.approx(alpha, abs=0.02)
    assert abs(r1.imag) < 0.02
    r5 = empirical_autocorr(h, 5)
    assert r5.real == pytest.approx(alpha ** 5, abs=0.02)


def test_ar1_zero_alpha_is_white():
    h = generate_path(Ar1Fading(0.0), 100_000, seed=3)
    assert abs(empirical_autocorr(h, 1)) < 0.02


def test_ar1_prefix_stability():
    a = generate_path(Ar1Fading(0.99), 100, seed=8)
    b = generate_path(Ar1Fading(0.99), 5000, seed=8)
    assert np.array_equal(a, b[:100])


# samples of one path in a cache block of the AR(1) recursion
AR1_BLOCK = fading._SEGMENT * block_step(fading._SEGMENT)


def plain_ar1_path(alpha, n, seed):
    """h[0] = w[0], h[k] = alpha * h[k-1] + sqrt(1 - alpha^2) * w[k], one
    sample at a time in Python complex arithmetic."""
    w = complex_normal(np.random.default_rng(seed), n)
    scale = math.sqrt(1.0 - alpha ** 2)
    path = [complex(w[0])]
    for k in range(1, n):
        path.append(alpha * path[-1] + scale * complex(w[k]))
    return np.array(path)


def assert_within_rounding(path, want, alpha):
    """path is want up to the rounding of the recursion.

    Each step rounds by about an ulp of max|h|, and the recursion carries
    an error on at gain alpha, so independent roundings add up to about
    1/sqrt(1 - alpha^2) ulps; the bound allows 8 times that.  A wrong
    carry or power is off by O(max|h|), some 1e16 ulps.
    """
    assert path.shape == want.shape
    ulps = np.abs(path - want).max() / np.spacing(np.abs(want).max())
    assert ulps <= 8.0 / math.sqrt(1.0 - alpha ** 2), ulps


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.999])
def test_ar1_path_matches_plain_recursion(alpha):
    # the segmented recursion rounds differently from the plain one, by a
    # few ulps; n = 300 is not a whole number of segments
    n = 300
    assert_within_rounding(generate_path(Ar1Fading(alpha), n, seed=21),
                           plain_ar1_path(alpha, n, 21), alpha)


def exact_ar1_path(alpha, x):
    """The recursion h[k] = alpha * h[k-1] + x[k] from h[0] = x[0] in exact
    rational arithmetic, on the float alpha and the float inputs x."""
    a = Fraction(alpha)
    re, im = Fraction(x[0].real), Fraction(x[0].imag)
    path = [(re, im)]
    for v in x[1:]:
        re = a * re + Fraction(v.real)
        im = a * im + Fraction(v.imag)
        path.append((re, im))
    return path


def ulps_from_exact(path, exact, top):
    """max_k |path[k] - exact[k]| per part, in ulps of top."""
    worst = max(max(abs(Fraction(p.real) - re), abs(Fraction(p.imag) - im))
                for p, (re, im) in zip(path.tolist(), exact))
    return float(worst) / float(np.spacing(top))


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.999, 0.9999])
def test_ar1_path_rounds_like_the_plain_recursion(alpha):
    # against the exact recursion on the same inputs, the segmented route's
    # error is of the plain recursion's own order: n = 601 takes four
    # levels of segment ends and ends in a partial segment
    n, seed = 601, 5
    w = complex_normal(np.random.default_rng(seed), n)
    x = math.sqrt(1.0 - alpha ** 2) * w
    x[0] = w[0]
    exact = exact_ar1_path(alpha, x)
    top = max(abs(complex(float(re), float(im))) for re, im in exact)
    plain = ulps_from_exact(plain_ar1_path(alpha, n, seed), exact, top)
    segmented = ulps_from_exact(generate_path(Ar1Fading(alpha), n, seed),
                                exact, top)
    assert plain <= 8.0 / math.sqrt(1.0 - alpha ** 2)
    assert segmented <= 2.0 * max(plain, 1.0), (segmented, plain)


def solve_banded_ar1_path(alpha, n, seed):
    """The whole-path solve: h[k] - alpha*h[k-1] = x[k] as one banded system."""
    w = complex_normal(np.random.default_rng(seed), n)
    x = math.sqrt(1.0 - alpha ** 2) * w
    x[0] = w[0]
    ab = np.empty((2, n))
    ab[0] = 1.0
    ab[1] = -alpha
    return scipy.linalg.solve_banded((1, 0), ab, x, check_finite=False)


@pytest.mark.parametrize("alpha", [0.5, 0.99, 0.999])
@pytest.mark.parametrize("steps, extra", [(0, 1), (1, -1), (1, 0), (1, 1),
                                          (2, 1)])
def test_ar1_path_matches_the_whole_path_solve(alpha, steps, extra):
    # n = 1, block - 1, block, block + 1 and 2 block + 1: one, two and three
    # cache blocks of the recursion, against LAPACK's banded solve
    n = steps * AR1_BLOCK + extra
    assert_within_rounding(generate_path(Ar1Fading(alpha), n, seed=23),
                           solve_banded_ar1_path(alpha, n, 23), alpha)


@pytest.mark.parametrize("alpha", [0.5, 0.99])
def test_ar1_paths_are_prefixes_of_longer_ones_across_segments(alpha):
    # a sample's arithmetic depends on its index alone: every length, whole
    # segments or not, one cache block or more, is a prefix of a longer path
    longest = generate_path(Ar1Fading(alpha), 2 * AR1_BLOCK + 70, seed=3)
    for n in (1, 7, 8, 9, 63, 64, 65, 513, AR1_BLOCK - 1, AR1_BLOCK + 9):
        assert np.array_equal(generate_path(Ar1Fading(alpha), n, seed=3),
                              longest[:n]), n


def test_ar1_path_allocates_little_beyond_its_output():
    # the segment ends (n / 7 samples over all levels) and one cache block
    # of temporaries; 2^20 + 3 ends in a partial segment
    for n in (2 ** 20, 2 ** 20 + 3):
        tracemalloc.start()
        try:
            generate_path(Ar1Fading(0.99), n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * n, n


@pytest.mark.parametrize("batch", [2, 16])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 513, AR1_BLOCK - 1,
                               AR1_BLOCK + 1, 2 * AR1_BLOCK + 3])
def test_ar1_batch_drops_its_pad_row_by_row(n, batch):
    # the batch is drawn padded to whole segments; whatever the pad, each
    # row is its seed's path and the batch is one C-contiguous array
    seeds = [40 + 3 * b for b in range(batch)]
    paths = generate_paths(Ar1Fading(0.99), n, seeds)
    assert paths.shape == (batch, n) and paths.flags.c_contiguous
    for seed, row in zip(seeds, paths):
        assert np.array_equal(row, generate_path(Ar1Fading(0.99), n, seed))


def test_ar1_batch_holds_its_padded_paths_the_ends_and_one_copy():
    # the simulate_dd shape: 16 paths of 771 samples, padded to 776.  The
    # padded array, the segment ends (under a seventh of it over all
    # levels) and the copy without the pad bound the peak: 424 192 bytes.
    # Before the pad it measured 483 848 bytes, when numpy copied each
    # strided block to scale it; 409 992 after
    batch, n = 16, 771
    padded = -(-n // fading._SEGMENT) * fading._SEGMENT
    tracemalloc.start()
    try:
        generate_paths(Ar1Fading(0.99), n, range(batch))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * batch * (padded + padded // 7 + n)


def assert_same_output_on_one_and_two_blas_threads(code):
    """Run `code` in a fresh interpreter on one and on two OpenBLAS threads;
    both print the same."""
    src = pathlib.Path(fading.__file__).resolve().parent.parent
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert len(outputs) == 1


def test_ar1_path_does_not_depend_on_the_blas_thread_count():
    # no BLAS call in the recursion: the path hashes alike on one and on
    # two OpenBLAS threads
    code = ("import hashlib\n"
            "from rtgmi.fading import Ar1Fading, generate_paths\n"
            "h = generate_paths(Ar1Fading(0.999), 70001, [1, 2, 3])\n"
            "print(hashlib.sha256(h.tobytes()).hexdigest())\n")
    assert_same_output_on_one_and_two_blas_threads(code)


def test_clarke_autocorrelation_vs_series_oracle():
    r = ClarkeFading(0.1).autocorrelation(21)
    for lag in range(0, 21):
        x = 2.0 * math.pi * 0.1 * lag
        assert r[lag].real == pytest.approx(bessel_j0_series(x), abs=1e-9)


_PER_LAG_ORACLES = [
    pytest.param(Ar1Fading(0.99), lambda t: 0.99 ** t, id="ar1"),
    pytest.param(Ar1Fading(0.0), lambda t: 0.0 ** t, id="ar1-white"),
    *(pytest.param(ClarkeFading(fd),
                   lambda t, fd=fd: float(j0(2.0 * math.pi * fd * t)),
                   id=f"clarke-{fd}")
      for fd in (0.01, 0.05, 0.1234, 0.5)),
]


@pytest.mark.parametrize("model, oracle", _PER_LAG_ORACLES)
def test_vector_read_is_the_per_lag_formula_bit_for_bit(model, oracle):
    # one vector read against the scalar formula evaluated lag by lag
    n = CHOLESKY_MAX_N
    want = np.array([complex(oracle(t)) for t in range(n)])
    got = model.autocorrelation(n)
    assert got.dtype == complex
    assert np.array_equal(got, want)


def test_clarke_parameter_contracts():
    with pytest.raises(ValueError):
        ClarkeFading(0.0)
    with pytest.raises(ValueError):
        ClarkeFading(0.6)


def test_clarke_small_n_sampling_matches_autocorrelation():
    # n below the cutoff goes through the exact covariance factorization
    m = ClarkeFading(0.05)
    cols = np.array([generate_path(m, 8, seed=s) for s in range(6000)])
    var = float(np.mean(np.abs(cols) ** 2))
    assert var == pytest.approx(1.0, abs=0.04)
    r1 = complex(np.mean(np.conj(cols[:, 0]) * cols[:, 1]))
    assert r1.real == pytest.approx(m.autocorrelation(2)[1].real, abs=0.05)
    assert abs(r1.imag) < 0.05


def test_clarke_small_n_path_is_the_factor_times_the_draw():
    # the real products on the float view equal numpy's complex product
    m = ClarkeFading(0.05)
    n = 300
    want = dense_factor(m._factor(n)) @ complex_normal(np.random.default_rng(4), n)
    assert np.allclose(generate_path(m, n, seed=4), want, rtol=0, atol=1e-12)


def test_j0_is_scipy_j0_bit_for_bit():
    # both branches of the Cephes routine: its 1 - x^2/4 below 1e-5, the
    # rational form up to x = 5, the asymptotic form past 5's next float,
    # and every argument a Clarke path factor reads, up to pi * 4096
    rng = np.random.default_rng(25)
    x = np.concatenate([
        rng.uniform(0.0, 2e4, 200_000), rng.uniform(0.0, 6.0, 200_000),
        np.geomspace(1e-9, 1e-4, 20_000),
        np.linspace(0.0, math.pi * 4096, 100_001),
        [0.0, 1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 5.0,
         np.nextafter(5.0, 0.0), np.nextafter(5.0, 6.0), math.pi * 4096]])
    assert np.array_equal(fading._j0(x).view(np.uint64), j0(x).view(np.uint64))


def dense_factor(blocks):
    """The dense lower factor L whose transpose the row blocks hold."""
    n = blocks[0].shape[1]
    upper = np.zeros((n, n))
    start = 0
    for block in blocks:
        upper[start:start + len(block), start:] = block
        start += len(block)
    return upper.T


def assert_row_block_layout(blocks, n):
    """Block b is rows kb, ..., kb + m - 1 of U = L' from column kb on, one
    C-order array, m = block_step(n); only the last block may be shorter."""
    step = block_step(n)
    assert isinstance(blocks, tuple)
    assert [b.shape for b in blocks] == [(min(step, n - first), n - first)
                                         for first in range(0, n, step)]
    assert all(b.flags.c_contiguous and b.dtype == np.float64 for b in blocks)


def dense_schur_factor(r):
    """The Schur steps of fading._schur_factor on one dense n x n U = L':
    the oracle the row blocks must match bit for bit."""
    n = len(r)
    upper = np.zeros((n, n))
    upper[0] = r / math.sqrt(r[0])
    v = upper[0].copy()
    v[0] = 0.0
    scratch = np.empty(n)
    for k in range(n - 1):
        u, below = upper[k, k:-1], upper[k + 1, k + 1:]
        vk, t = v[k + 1:], scratch[k + 1:]
        g = vk.item(0) / u.item(0)
        s = math.sqrt((1.0 - g) * (1.0 + g))
        np.subtract(u, np.multiply(vk, g, t), below)
        below /= s
        vk *= s
        vk -= np.multiply(below, g, t)
    return upper


def jittered_clarke_column(doppler, n):
    """First column of the Toeplitz covariance the Clarke factor factors."""
    r = ClarkeFading(doppler).autocorrelation(n).real.copy()
    r[0] += fading._PSD_JITTER
    return r


@pytest.mark.parametrize("r", [
    pytest.param(0.5 ** np.arange(300.0), id="ar1-0.5"),
    pytest.param(jittered_clarke_column(0.5, 768), id="clarke-0.5"),
])
def test_schur_factor_is_the_cholesky_factor_when_well_conditioned(r):
    blocks = fading._schur_factor(r)
    want = scipy.linalg.cholesky(scipy.linalg.toeplitz(r), lower=True)
    assert_row_block_layout(blocks, len(r))
    assert np.max(np.abs(dense_factor(blocks) - want)) <= 1e-12


def toeplitz_residual(factor, r):
    """max |L L' - T| for T the symmetric Toeplitz matrix of r, a block of
    rows of L L' at a time."""
    n = len(r)
    worst = 0.0
    for start in range(0, n, 512):
        rows = factor[start:start + 512] @ factor.T
        lags = np.abs(np.arange(start, start + len(rows))[:, None]
                      - np.arange(n))
        worst = max(worst, float(np.max(np.abs(rows - r[lags]))))
    return worst


@pytest.mark.parametrize("doppler", [0.01, 0.05, 0.5])
@pytest.mark.parametrize("n", [8, 300, 768, 4096])
def test_schur_factor_reproduces_the_clarke_covariance(doppler, n):
    # f_d = 0.01 has pivots down to 1.3e-5, so the factor differs from
    # LAPACK's by about 1e-6 entrywise; its product must not
    blocks = ClarkeFading(doppler)._factorize(n)
    assert_row_block_layout(blocks, n)
    # the entries below the diagonal within a block are stored as zeros
    factor = dense_factor(blocks)
    assert not np.triu(factor, 1).any()
    assert toeplitz_residual(factor, jittered_clarke_column(doppler, n)) <= 2e-13


def test_schur_factor_refuses_a_matrix_that_is_not_positive_definite():
    # tridiagonal 1, 0.6: its smallest eigenvalue is 1 - 1.2 cos(pi / 51)
    r = np.zeros(50)
    r[:2] = 1.0, 0.6
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.cholesky(scipy.linalg.toeplitz(r))
    with pytest.raises(np.linalg.LinAlgError):
        fading._schur_factor(r)


def test_clarke_factor_does_not_depend_on_the_blas_thread_count():
    # the Schur steps are elementwise: the factor hashes alike on one and
    # on two OpenBLAS threads
    code = ("import hashlib\n"
            "from rtgmi.fading import ClarkeFading\n"
            "f = ClarkeFading(0.05)._factorize(771)\n"
            "print(hashlib.sha256(b''.join(f)).hexdigest())\n")
    assert_same_output_on_one_and_two_blas_threads(code)


def test_clarke_path_does_not_depend_on_the_blas_thread_count():
    # one BLAS product per row block, each over at most block_step(n) rows:
    # a batch of 16 paths of 771 samples and one path of 3000 hash alike on
    # one and on two OpenBLAS threads
    code = ("import hashlib\n"
            "from rtgmi.fading import ClarkeFading, generate_paths\n"
            "m = ClarkeFading(0.05)\n"
            "for n, seeds in ((771, range(16)), (3000, [1])):\n"
            "    h = generate_paths(m, n, seeds)\n"
            "    print(hashlib.sha256(h.tobytes()).hexdigest())\n")
    assert_same_output_on_one_and_two_blas_threads(code)


@pytest.mark.parametrize("doppler, n", [
    (0.05, 1), (0.05, 8), (0.05, 181), (0.05, 182), (0.01, 771),
    (0.5, 1000), (0.05, 3000)])
def test_clarke_row_blocks_are_the_dense_schur_factor(doppler, n):
    # n = 181 is one block (block_step(181) = 181), 182 two, ending in a
    # 2-row block; each stored entry has the bits of the dense steps', and
    # the blocked paths are the dense product to rounding
    model = ClarkeFading(doppler)
    blocks = model._factor(n)
    assert all(not b.flags.writeable for b in blocks)
    upper = dense_schur_factor(jittered_clarke_column(doppler, n))
    start = 0
    for block in blocks:
        want = upper[start:start + len(block), start:]
        assert np.array_equal(block.view(np.uint64), want.view(np.uint64))
        start += len(block)
    seeds = range(3)
    w = complex_normal_rows([np.random.default_rng(s) for s in seeds], n)
    got = generate_paths(model, n, seeds)
    assert np.allclose(got, (upper.T @ w.T).T, rtol=0, atol=1e-14)


def test_clarke_factor_holds_one_matrix():
    # toeplitz, eye, their sum and LAPACK's copy used to take four n x n;
    # the row blocks take the trapezoids m x (n - kb), about 0.53 * 8n^2
    # at n = 768 (m = 42), with a few n-vectors and the row views
    n = 768
    model = ClarkeFading(0.01)
    tracemalloc.start()
    try:
        model._factorize(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * 8 * n * n


def test_clarke_large_n_ray_synthesis():
    m = ClarkeFading(0.08)
    n = CHOLESKY_MAX_N + 4000
    h = generate_path(m, n, seed=77)
    assert float(np.mean(np.abs(h) ** 2)) == pytest.approx(1.0, abs=0.1)
    r1 = empirical_autocorr(h, 1)
    assert r1.real == pytest.approx(m.autocorrelation(2)[1].real, abs=0.12)


def _bartlett():
    return TabulatedFading(lags=(0, 1, 2, 3, 4),
                           values=(1.0, 0.75, 0.5, 0.25, 0.0))


def test_tabulated_bartlett_sampling():
    # triangular autocorrelation has compact support, so the zero extension
    # used by the banded factorization is exact
    h = generate_path(_bartlett(), 150_000, seed=6)
    assert float(np.mean(np.abs(h) ** 2)) == pytest.approx(1.0, abs=0.03)
    assert empirical_autocorr(h, 1).real == pytest.approx(0.75, abs=0.03)
    assert empirical_autocorr(h, 3).real == pytest.approx(0.25, abs=0.03)


def _bartlett_65():
    """The digest's Bartlett window: b = 64, spectrum >= 0 (it touches 0)."""
    return TabulatedFading(lags=tuple(range(65)),
                           values=tuple(1 - k / 65 for k in range(65)))


@pytest.mark.parametrize("model", [
    pytest.param(_bartlett_65(), id="bartlett"),
    # the prediction grid's complex table, r(b) != 0 at b = 513; its
    # zero-extended spectrum stays above 0.007
    pytest.param(gapped_complex_table(_GRID_MAX_LAG), id="gapped-complex"),
])
@pytest.mark.parametrize("length", ["1", "b", "b+1", "1500"])
def test_circulant_block_is_the_toeplitz_covariance(model, length):
    # the leading n x n block of the circulant with eigenvalues root^2 is
    # the Toeplitz matrix of the zero-extended, jittered table, n <= b too
    b = model.lags[-1]
    n = {"1": 1, "b": b, "b+1": b + 1, "1500": 1500}[length]
    root = fading._circulant_root(model._dense_row, n)
    m = len(root)
    assert m & (m - 1) == 0 and m >= max(n, b + 1) + b
    col = np.fft.ifft(root ** 2)
    block = scipy.linalg.toeplitz(col[:n], col[-np.arange(n) % m])
    r = np.zeros(n, dtype=complex)
    r[:min(n, b + 1)] = model._dense_row[:n]
    r[0] += fading._PSD_JITTER
    assert np.max(np.abs(block - scipy.linalg.toeplitz(r))) <= 1e-14


def test_tabulated_path_does_not_depend_on_the_blas_thread_count():
    # pocketfft makes no BLAS call: the paths hash alike on one and on two
    # OpenBLAS threads
    code = ("import hashlib\n"
            "from rtgmi.fading import TabulatedFading, generate_paths\n"
            "m = TabulatedFading(lags=tuple(range(65)),"
            " values=tuple(1 - k / 65 for k in range(65)))\n"
            "h = generate_paths(m, 70001, [1, 2, 3])\n"
            "print(hashlib.sha256(h.tobytes()).hexdigest())\n")
    assert_same_output_on_one_and_two_blas_threads(code)


def test_tabulated_path_holds_a_few_circulant_vectors():
    # a 10^6-sample path embeds in m = 2^20 points; the factor, the draws
    # and the inverse FFT take at most four complex m-vectors together
    model = _bartlett_65()
    tracemalloc.start()
    try:
        generate_path(model, 10 ** 6, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model._cached_factor[1]) == 2 ** 20
    assert peak <= 4 * 16 * 2 ** 20


_FACTORIZED_MODELS = [
    pytest.param(lambda: ClarkeFading(0.01), "rtgmi.fading._schur_factor",
                 id="clarke"),
    pytest.param(_bartlett, "rtgmi.fading._circulant_root", id="tabulated"),
]


@pytest.mark.parametrize("make, _", _FACTORIZED_MODELS)
def test_reused_model_draws_the_paths_of_a_fresh_one(make, _):
    # the factor kept from the last length must never serve another length
    reused = make()
    for seed, n in enumerate((768, 8, 768, 768, 8)):
        assert np.array_equal(generate_path(reused, n, seed),
                              generate_path(make(), n, seed)), (seed, n)


@pytest.mark.parametrize("make, routine", _FACTORIZED_MODELS)
def test_one_factorization_per_path_length(make, routine, monkeypatch):
    calls = []
    module, name = routine.rsplit(".", 1)
    inner = getattr(importlib.import_module(module), name)

    def counted(*args, **kwargs):
        calls.append(routine)
        return inner(*args, **kwargs)

    monkeypatch.setattr(routine, counted)
    model = make()
    paths = [generate_path(model, 64, seed) for seed in range(20)]
    assert len(calls) == 1
    assert len({p.tobytes() for p in paths}) == 20
    # a batch reuses the factor of its length, and factors a new one once
    assert np.array_equal(generate_paths(model, 64, range(20)), paths)
    assert len(calls) == 1
    generate_paths(model, 65, range(17))
    assert len(calls) == 2
    generate_path(model, 65, seed=0)
    generate_path(model, 65, seed=1)
    assert len(calls) == 2


_BATCHED_MODELS = [
    # n > AR1_BLOCK: the AR(1) recursion crosses a block boundary
    pytest.param(lambda: Ar1Fading(0.0), AR1_BLOCK + 5, id="ar1-white"),
    pytest.param(lambda: Ar1Fading(0.99), AR1_BLOCK + 5, id="ar1"),
    pytest.param(lambda: ClarkeFading(0.05), 300, id="clarke-cholesky"),
    pytest.param(lambda: ClarkeFading(0.05), CHOLESKY_MAX_N + 3,
                 id="clarke-rays"),
    pytest.param(_bartlett, 500, id="tabulated"),
]


@pytest.mark.parametrize("make, n", _BATCHED_MODELS)
@pytest.mark.parametrize("batch", [1, 17])
def test_every_row_of_a_batch_is_the_path_of_its_seed(make, n, batch):
    seeds = [1000 + 7 * b for b in range(batch)]
    paths = generate_paths(make(), n, seeds)
    assert paths.shape == (batch, n) and paths.dtype == complex
    assert paths.flags.c_contiguous
    for seed, row in zip(seeds, paths):
        assert np.array_equal(row, generate_path(make(), n, seed)), seed


def test_failed_banded_factorization_raises_on_every_call():
    # PSD over the table's span (the 3 x 3 section), but the spectrum
    # 1 + 1.3 cos(2 pi f) + 0.8 cos(4 pi f) of the zero extension dips
    # below 0: the circulant's grid f = j / m misses the dip at m = 8
    # (n <= 6, smallest eigenvalue +0.081) and meets it at m = 64 (n = 50,
    # about -0.063).  The grid at m is a subset of the grid at 2m, so a
    # length that is refused refuses every longer length too.
    table = dict(lags=(0, 1, 2), values=(1.0, 0.65, 0.4))
    model = TabulatedFading(**table)
    for seed in range(3):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            generate_path(model, 50, seed)
    assert np.array_equal(
        generate_path(model, 2, seed=4),
        generate_path(TabulatedFading(**table), 2, seed=4))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        generate_path(model, 50, seed=5)
    # r = (1, 0.6) has S(1/2) = -0.2, on the grid of every m >= 4
    with pytest.raises(ValueError, match="eigenvalue -0.2$"):
        generate_path(TabulatedFading(lags=(0, 1), values=(1.0, 0.6)), 2, 4)


def test_tabulated_contract_errors():
    with pytest.raises(ValueError):
        TabulatedFading(lags=(0, 1), values=(0.9, 0.5))      # r(0) != 1
    with pytest.raises(ValueError):
        TabulatedFading(lags=(1, 2), values=(1.0, 0.5))      # missing lag 0
    with pytest.raises(ValueError):
        TabulatedFading(lags=(0, 1), values=(1.0, 1.5))      # |r| > 1
    with pytest.raises(ValueError):
        TabulatedFading(lags=(0, 2, 1), values=(1.0, 0.5, 0.7))
    with pytest.raises(ValueError):
        # 3x3 Toeplitz of this sequence has a negative eigenvalue
        TabulatedFading(lags=(0, 1, 2), values=(1.0, 0.8, -0.9))


def _dense_section_is_positive_definite(values):
    """The dense oracle: Cholesky of the jittered (b + 1) x (b + 1) section."""
    cov = scipy.linalg.toeplitz(np.asarray(values, dtype=complex))
    cov[np.diag_indices(len(cov))] += fading._PSD_JITTER
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return False
    return True


def _line_spectrum(rng):
    # a few spectral lines: the section has rank <= 5, so it is singular
    b, lines = int(rng.integers(1, 201)), int(rng.integers(1, 6))
    freqs, weights = rng.uniform(-0.5, 0.5, lines), rng.dirichlet(np.ones(lines))
    r = np.exp(2j * np.pi * np.outer(np.arange(b + 1), freqs)) @ weights
    r[0] = 1.0
    return r


def _random_table(rng):
    # random magnitudes and phases, mostly indefinite
    b = int(rng.integers(1, 201))
    mags = rng.uniform(0, 1) * rng.uniform(0, 1, b) ** rng.uniform(1, 8)
    return np.concatenate(([1.0], mags * np.exp(2j * np.pi * rng.uniform(0, 1, b))))


def _truncated_ar1(rng):
    # a^k e^{iwk}, its lags perturbed by up to 30% noise: either verdict
    b, a, w = int(rng.integers(1, 201)), rng.uniform(0, 1), rng.uniform(-np.pi, np.pi)
    k = np.arange(b + 1)
    r = a ** k * np.exp(1j * w * k)
    r *= 1 + rng.uniform(-0.3, 0.3) * rng.standard_normal(b + 1) * (k > 0)
    r /= max(1.0, np.abs(r).max())
    r[0] = 1.0
    return r


@pytest.mark.parametrize("kind, make", [
    pytest.param(0, _line_spectrum, id="line-spectra"),
    pytest.param(1, _random_table, id="random"),
    pytest.param(2, _truncated_ar1, id="truncated-ar1")])
def test_levinson_check_gives_the_dense_cholesky_verdict(kind, make):
    tables = [make(np.random.default_rng([kind, seed])) for seed in range(60)]
    verdicts = []
    for r in tables:
        dense = _dense_section_is_positive_definite(r)
        try:
            TabulatedFading(lags=tuple(range(len(r))), values=tuple(r))
        except ValueError as exc:
            assert "not positive semidefinite" in str(exc)
            accepted = False
        else:
            accepted = True
        assert accepted == dense, list(r)
        verdicts.append(accepted)
    # singular line-spectrum sections are accepted; the others split
    assert set(verdicts) == ({True} if kind == 0 else {True, False})


@pytest.mark.parametrize("values, accepted", [
    # singular; so are its noiseless normal equations
    pytest.param((1.0, 1.0, 1.0), True, id="flat"),
    # the 3 x 3 section is indefinite
    pytest.param((1.0, 0.8, -0.9), False, id="indefinite"),
])
def test_levinson_check_on_edge_tables(values, accepted):
    assert _dense_section_is_positive_definite(values) == accepted
    if accepted:
        TabulatedFading(lags=(0, 1, 2), values=values)
    else:
        with pytest.raises(ValueError, match="not positive semidefinite"):
            TabulatedFading(lags=(0, 1, 2), values=values)


def test_tabulated_check_holds_a_few_table_vectors():
    # the Levinson recursion keeps O(b) vectors where the dense jittered
    # section of the b = 2048 Bartlett table took (b + 1)^2 complex entries
    b = 2048
    lags = tuple(range(b + 1))
    values = tuple(1 - k / (b + 1) for k in lags)
    tracemalloc.start()
    try:
        TabulatedFading(lags=lags, values=values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * (b + 1) * 16


def test_tabulated_refuses_a_non_integer_lag():
    # int() would truncate the lag 1.5 to 1
    with pytest.raises(ValueError, match="lag 1.5 is not an integer"):
        TabulatedFading(lags=(0, 1.5), values=(1.0, 0.5))
    assert TabulatedFading(lags=(0, 1.0), values=(1.0, 0.5)).lags == (0, 1)


def test_tabulated_query_beyond_table_raises():
    m = TabulatedFading(lags=(0, 1), values=(1.0, 0.5))
    r = m.autocorrelation(2)
    assert r.dtype == complex and np.array_equal(r, [1.0, 0.5])
    r[1] = 0.0                   # a copy: the table stays as it was
    assert m.autocorrelation(2)[1] == 0.5
    with pytest.raises(ValueError, match="lag 2 beyond tabulated range 1"):
        m.autocorrelation(3)


def test_tabulated_skipped_lags_read_as_zero():
    m = TabulatedFading(lags=(0, 1, 3), values=(1.0, 0.5j, 0.1))
    assert np.array_equal(m.autocorrelation(4), [1.0, 0.5j, 0.0, 0.1])


def test_tabulated_from_csv_roundtrip(tmp_path):
    p = tmp_path / "table.csv"
    p.write_text("lag,re,im\n0,1.0,0.0\n1,0.3,0.0\n2,0.09,0.0\n")
    m = TabulatedFading.from_csv(str(p))
    assert m.autocorrelation(3)[2] == pytest.approx(0.09)
    h = generate_path(m, 500, seed=1)
    assert len(h) == 500


def test_tabulated_from_csv_names_a_short_row(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("lag,re,im\n0,1.0,0.0\n1,0.5\n")
    with pytest.raises(ValueError, match=r"short\.csv:3: expected lag,re,im"):
        TabulatedFading.from_csv(str(p))


@pytest.mark.parametrize("row", ["1,abc,0", "1,0.5,x", "1.5,0.5,0", "one,0,0",
                                 "1,0.5,0,7"])
def test_tabulated_from_csv_names_a_bad_cell(tmp_path, row):
    p = tmp_path / "bad.csv"
    p.write_text(f"lag,re,im\n0,1.0,0.0\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: expected lag,re,im") \
            as info:
        TabulatedFading.from_csv(str(p))
    assert repr(row) in str(info.value)


@pytest.mark.parametrize("value", [complex("nan"), complex("inf"),
                                   complex(0.5, float("-inf"))])
def test_tabulated_rejects_nonfinite_values(value):
    with pytest.raises(ValueError, match="autocorrelation at lag 1 is not "
                                         "finite"):
        TabulatedFading(lags=(0, 1, 2), values=(1.0, value, 0.1))


def test_generate_path_contracts():
    with pytest.raises(ValueError):
        generate_path(Ar1Fading(0.5), 0, seed=1)
    with pytest.raises(ValueError):
        generate_paths(Ar1Fading(0.5), 0, [1, 2])
    with pytest.raises(ValueError):
        generate_paths(Ar1Fading(0.5), 16, [])
    a = generate_path(Ar1Fading(0.5), 16, seed=9)
    b = generate_path(Ar1Fading(0.5), 16, seed=9)
    assert np.array_equal(a, b)
