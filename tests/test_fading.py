import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.special import j0

from rtgmi import fading
from rtgmi.fading import (CHOLESKY_MAX_N, Ar1Fading, ClarkeFading,
                          TabulatedFading, generate_path, generate_paths)
from rtgmi.utils import block_step, complex_normal


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


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 0.999])
def test_ar1_path_matches_plain_recursion(alpha):
    # oracle: h[0] = w[0], h[k] = alpha * h[k-1] + sqrt(1 - alpha^2) * w[k];
    # the banded solve does the same arithmetic in the same order
    n = 300
    w = complex_normal(np.random.default_rng(21), n)
    scale = math.sqrt(1.0 - alpha ** 2)
    expected = [complex(w[0])]
    for k in range(1, n):
        expected.append(alpha * expected[-1] + scale * complex(w[k]))
    path = generate_path(Ar1Fading(alpha), n, seed=21)
    assert np.array_equal(path, expected)


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
    # n = 1, step - 1, step, step + 1 and 2 step + 1: one, two and three
    # blocks of the in-place solve
    n = steps * block_step(2) + extra
    path = generate_path(Ar1Fading(alpha), n, seed=23)
    assert np.array_equal(path, solve_banded_ar1_path(alpha, n, 23))


def test_ar1_path_allocates_little_beyond_its_output():
    n = 2 ** 20
    tracemalloc.start()
    try:
        generate_path(Ar1Fading(0.99), n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * n


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
    with pytest.raises(ValueError):
        ClarkeFading(0.1, ray_count=8)


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
    # the real product on the float view equals numpy's complex product
    m = ClarkeFading(0.05)
    n = 300
    want = m._factor(n) @ complex_normal(np.random.default_rng(4), n)
    assert np.allclose(generate_path(m, n, seed=4), want, rtol=0, atol=1e-12)


def test_clarke_large_n_ray_synthesis():
    m = ClarkeFading(0.08, ray_count=256)
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


_FACTORIZED_MODELS = [
    pytest.param(lambda: ClarkeFading(0.01), "cholesky", id="clarke"),
    pytest.param(_bartlett, "cholesky_banded", id="tabulated"),
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
    inner = getattr(fading.scipy.linalg, routine)

    def counted(*args, **kwargs):
        calls.append(routine)
        return inner(*args, **kwargs)

    monkeypatch.setattr(fading.scipy.linalg, routine, counted)
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
    # n > block_step(2): the AR(1) solve crosses a block boundary
    pytest.param(lambda: Ar1Fading(0.0), block_step(2) + 5, id="ar1-white"),
    pytest.param(lambda: Ar1Fading(0.99), block_step(2) + 5, id="ar1"),
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
    # PSD over the table's span, but the zero-extended tridiagonal Toeplitz
    # matrix has eigenvalue 1 + 1.2 cos(k pi / (n + 1)) < 0 for long paths
    model = TabulatedFading(lags=(0, 1), values=(1.0, 0.6))
    for seed in range(3):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            generate_path(model, 50, seed)
    assert np.array_equal(
        generate_path(model, 2, seed=4),
        generate_path(TabulatedFading(lags=(0, 1), values=(1.0, 0.6)), 2,
                      seed=4))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        generate_path(model, 50, seed=5)


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


@pytest.mark.parametrize("row", ["1,abc,0", "1,0.5,x", "1.5,0.5,0", "one,0,0"])
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
