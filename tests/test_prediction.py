import cmath
import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from rtgmi import prediction
from rtgmi.fading import Ar1Fading, ClarkeFading, FadingModel, TabulatedFading
from rtgmi.prediction import (PredictorSpec, _normal_equations, effective_snr,
                              predictor_coefficients, rho_sequence,
                              schedule_lag_pattern, schedule_predictors,
                              schedule_rhos, solve_hermitian_toeplitz)


def random_psd_toeplitz_column(p: int, rng) -> np.ndarray:
    """Spectral mixture c_k = sum_j w_j exp(-i omega_j k): PSD by construction."""
    omegas = rng.uniform(-math.pi, math.pi, size=6)
    weights = rng.uniform(0.2, 1.0, size=6)
    k = np.arange(p)
    col = (weights[None, :] * np.exp(-1j * np.outer(k, omegas))).sum(axis=1)
    col[0] = col[0].real + 0.05 * weights.sum()  # keep it safely definite
    return col


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16, 32])
def test_levinson_matches_dense_solve(p):
    rng = np.random.default_rng(100 + p)
    col = random_psd_toeplitz_column(p, rng)
    matrix = toeplitz(col)
    b = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    got = solve_hermitian_toeplitz(col, b)
    want = np.linalg.solve(matrix, b)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-10


def test_levinson_contract_errors():
    with pytest.raises(ValueError):
        solve_hermitian_toeplitz(np.array([1.0, 0.5]), np.array([1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        solve_hermitian_toeplitz(np.array([-1.0 + 0j]), np.array([1.0 + 0j]))
    with pytest.raises(np.linalg.LinAlgError):
        # singular: r(0) = r(1) makes the order-2 minor vanish
        solve_hermitian_toeplitz(np.array([1.0 + 0j, 1.0 + 0j]),
                                 np.array([1.0 + 0j, 1.0 + 0j]))


def test_predictor_spec_contracts():
    with pytest.raises(ValueError):
        PredictorSpec(order=2, observation_snr=1.0, lag_pattern=(1,))
    with pytest.raises(ValueError):
        PredictorSpec(order=2, observation_snr=1.0, lag_pattern=(2, 1))
    with pytest.raises(ValueError):
        PredictorSpec(order=1, observation_snr=1.0, lag_pattern=(0,))
    with pytest.raises(ValueError):
        PredictorSpec(order=1, observation_snr=0.0, lag_pattern=(1,))
    spec = PredictorSpec(order=1, observation_snr=math.inf, lag_pattern=(1,))
    assert spec.lag_pattern == (1,)


def test_single_tap_closed_form():
    # predict h[t] from y[t-tau] = h[t-tau] + e/sqrt(gamma):
    # c = alpha^tau * gamma/(gamma+1), s2 = 1 - alpha^(2 tau) * gamma/(gamma+1)
    alpha, gamma, tau = 0.9, 2.0, 3
    model = Ar1Fading(alpha)
    spec = PredictorSpec(order=1, observation_snr=gamma, lag_pattern=(tau,))
    res = predictor_coefficients(model, spec)
    shrink = gamma / (gamma + 1.0)
    assert res.coefficients[0] == pytest.approx(alpha ** tau * shrink, abs=1e-12)
    assert res.error_variance == pytest.approx(
        1.0 - alpha ** (2 * tau) * shrink, abs=1e-12)


def test_noiseless_single_tap():
    model = Ar1Fading(0.8)
    spec = PredictorSpec(order=1, observation_snr=math.inf, lag_pattern=(1,))
    res = predictor_coefficients(model, spec)
    assert res.coefficients[0] == pytest.approx(0.8, abs=1e-12)
    assert res.error_variance == pytest.approx(1.0 - 0.64, abs=1e-12)


def test_levinson_and_dense_routes_agree():
    # evenly spaced patterns take the Levinson route, ragged ones the dense
    # solve; either way the weights are those of the dense normal equations
    model = ClarkeFading(0.03)
    uniform = [tuple(range(1, p + 1)) for p in (1, 2, 4, 8, 16, 32)] \
        + [schedule_lag_pattern(1, 3, 8)]                 # 1, 4, 7, ...
    ragged = [(1, 2, 5), schedule_lag_pattern(2, 3, 8)]   # 1, 2, 4, 5, ...
    for pattern in uniform + ragged:
        spec = PredictorSpec(order=len(pattern), observation_snr=1.5,
                             lag_pattern=pattern)
        cov, cross = _normal_equations(model.autocorrelation(pattern[-1] + 1),
                                       spec)
        dense = np.linalg.solve(cov, cross)
        res = predictor_coefficients(model, spec)
        rel = np.linalg.norm(res.coefficients - dense) / np.linalg.norm(dense)
        assert rel <= 1e-10, pattern
        assert res.error_variance == pytest.approx(
            1.0 - float(np.real(np.vdot(cross, dense))), abs=1e-12), pattern


def test_ragged_pattern_against_hand_built_normal_equations():
    alpha, gamma = 0.95, 3.0
    lags = (1, 2, 5, 9)
    model = Ar1Fading(alpha)
    spec = PredictorSpec(order=4, observation_snr=gamma, lag_pattern=lags)
    res = predictor_coefficients(model, spec)
    # independent construction, solved with a generic dense solver
    p = len(lags)
    cov = np.empty((p, p), dtype=complex)
    for a in range(p):
        for b in range(p):
            cov[a, b] = alpha ** abs(lags[b] - lags[a])
    cov += np.eye(p) / gamma
    cross = np.array([alpha ** t for t in lags], dtype=complex)
    want = np.linalg.solve(cov, cross)
    assert np.allclose(res.coefficients, want, atol=1e-12)
    s2_want = 1.0 - float(np.real(np.vdot(cross, want)))
    assert res.error_variance == pytest.approx(s2_want, abs=1e-12)


def test_more_taps_never_hurt():
    model = Ar1Fading(0.99)
    prev = 1.0
    for p in (1, 2, 4, 8, 16):
        spec = PredictorSpec(order=p, observation_snr=1.0,
                             lag_pattern=tuple(range(1, p + 1)))
        s2 = predictor_coefficients(model, spec).error_variance
        assert s2 <= prev + 1e-12
        prev = s2


def test_effective_snr_hand_values():
    assert effective_snr(1.0, 7.3) == 0.0
    assert effective_snr(0.5, 1.0) == pytest.approx(1.0 / 3.0)
    assert effective_snr(0.0, 2.0) == pytest.approx(2.0)
    assert effective_snr(0.5, math.inf) == pytest.approx(1.0)
    assert effective_snr(0.0, math.inf) == math.inf
    with pytest.raises(ValueError):
        effective_snr(1.5, 1.0)
    with pytest.raises(ValueError):
        effective_snr(0.5, -1.0)


def test_perfect_memory_limit():
    model = Ar1Fading(1.0 - 1e-9)
    spec = PredictorSpec(order=1, observation_snr=math.inf, lag_pattern=(1,))
    res = predictor_coefficients(model, spec)
    assert res.error_variance < 1e-8
    if res.error_variance > 0.0:
        limit = (1.0 - res.error_variance) / res.error_variance
        assert res.effective_snr == pytest.approx(limit)
    else:
        assert res.effective_snr == math.inf


def test_schedule_lag_pattern_hand_values():
    assert schedule_lag_pattern(1, 4, 3) == (1, 5, 9)
    assert schedule_lag_pattern(3, 4, 4) == (1, 2, 3, 5)
    assert schedule_lag_pattern(2, 8, 5) == (1, 2, 9, 10, 17)
    with pytest.raises(ValueError):
        schedule_lag_pattern(0, 4, 3)
    with pytest.raises(ValueError):
        schedule_lag_pattern(4, 4, 3)


def test_rho_sequence_properties():
    model = Ar1Fading(0.99)
    rhos = rho_sequence(model, 8, 1.0, 16)
    assert rhos[0] == 0.0
    assert np.all(np.diff(rhos[1:]) >= -1e-12)   # non-decreasing over data PSCs
    assert rhos[1] > 0.0
    assert np.array_equal(rho_sequence(model, 1, 1.0, 16), np.zeros(1))


def test_rho_sequence_white_fading_gives_zero():
    rhos = rho_sequence(Ar1Fading(0.0), 6, 2.0, 8)
    assert np.allclose(rhos, 0.0, atol=1e-12)


def test_schedule_predictors_layout():
    model = Ar1Fading(0.9)
    preds = schedule_predictors(model, 5, 1.0, 6)
    assert preds[0] is None
    assert len(preds) == 5
    for l in range(1, 5):
        assert preds[l].spec.lag_pattern == schedule_lag_pattern(l, 5, 6)


def normal_equations_oracle(r, spec):
    """The normal equations built entry by entry, each lag read through a memo."""
    lags = np.array(spec.lag_pattern)
    noise = 0.0 if math.isinf(spec.observation_snr) else 1.0 / spec.observation_snr
    memo = {}

    def r_h(tau):
        t = int(tau)
        if t not in memo:
            memo[t] = complex(r[abs(t)])
            if t < 0:
                memo[t] = np.conj(memo[t])
        return memo[t]

    p = spec.order
    cov = np.empty((p, p), dtype=complex)
    for a in range(p):
        for b in range(p):
            cov[a, b] = r_h(lags[b] - lags[a])
    cov[np.diag_indices(p)] += noise
    cross = np.array([np.conj(r_h(t)) for t in lags])
    return cov, cross


def gapped_complex_table(max_lag):
    """a^t e^{i w t} (1 + cos(pi t / 2)) / 2 on lags 0..max_lag: a Schur
    product of PSD sequences, so PSD, and zero at every lag t = 2 mod 4,
    which the table leaves out."""
    lags = [t for t in range(max_lag + 1) if t % 4 != 2]
    values = [0.99 ** t * cmath.exp(0.3j * t) * (1.0 + math.cos(math.pi * t / 2)) / 2
              for t in lags]
    values[0] = 1.0
    return TabulatedFading(lags=tuple(lags), values=tuple(values))


_GRID_DEPTHS = (2, 3, 8, 32)
_GRID_ORDERS = (1, 4, 16, 17)
_GRID_SNRS = (0.37, 1.0, math.inf)
# the deepest pattern of the grid: subchannel 1 at L = 32, order 17
_GRID_MAX_LAG = schedule_lag_pattern(1, 32, 17)[-1]


@pytest.mark.parametrize("model", [
    pytest.param(Ar1Fading(0.0), id="ar1-0"),
    pytest.param(Ar1Fading(0.99), id="ar1-0.99"),
    pytest.param(ClarkeFading(0.01), id="clarke-0.01"),
    pytest.param(ClarkeFading(0.05), id="clarke-0.05"),
    pytest.param(gapped_complex_table(_GRID_MAX_LAG), id="tabulated"),
])
def test_normal_equations_match_the_per_entry_oracle_bit_for_bit(model):
    r = model.autocorrelation(_GRID_MAX_LAG + 1)
    for depth in _GRID_DEPTHS:
        for order in _GRID_ORDERS:
            for l in range(1, depth):
                pattern = schedule_lag_pattern(l, depth, order)
                for snr in _GRID_SNRS:
                    spec = PredictorSpec(order=order, observation_snr=snr,
                                         lag_pattern=pattern)
                    cov, cross = _normal_equations(r, spec)
                    want_cov, want_cross = normal_equations_oracle(r, spec)
                    assert cov.dtype == want_cov.dtype
                    assert cross.dtype == want_cross.dtype
                    assert np.array_equal(cov, want_cov), (depth, order, l, snr)
                    assert np.array_equal(cross, want_cross), (depth, order, l, snr)


@pytest.mark.parametrize("model", [Ar1Fading(0.9), ClarkeFading(0.05)])
def test_schedules_give_bit_identical_rho_with_the_oracle(model, monkeypatch):
    for depth, order in ((3, 16), (8, 17), (32, 4)):
        got = rho_sequence(model, depth, 1.0, order)
        with monkeypatch.context() as patch:
            patch.setattr(prediction, "_normal_equations", normal_equations_oracle)
            want = rho_sequence(model, depth, 1.0, order)
        assert np.array_equal(got, want), (depth, order)


class CountingAr1(FadingModel):
    """AR(1) fading that records the length of every autocorrelation read."""

    def __init__(self, alpha):
        self.inner = Ar1Fading(alpha)
        self.reads = []

    def autocorrelation(self, n):
        self.reads.append(n)
        return self.inner.autocorrelation(n)


@pytest.mark.parametrize("depth, order", [(2, 4), (3, 16), (8, 17)])
def test_normal_equations_read_each_lag_once_up_to_the_largest(depth, order):
    for l in range(1, depth):
        pattern = schedule_lag_pattern(l, depth, order)
        model = CountingAr1(0.9)
        predictor_coefficients(model, PredictorSpec(
            order=order, observation_snr=1.0, lag_pattern=pattern))
        assert model.reads == [max(pattern) + 1]


@pytest.mark.parametrize("depth, order", [(1, 4), (2, 4), (3, 16), (8, 17),
                                          (32, 1)])
def test_a_schedule_reads_its_model_once_at_its_largest_lag(depth, order):
    model = CountingAr1(0.9)
    predictors = schedule_predictors(model, depth, 1.0, order)
    # a schedule without data subchannels reads r(0) alone
    largest = max([p.spec.lag_pattern[-1] for p in predictors[1:]], default=0)
    if depth > 1:
        assert largest == schedule_lag_pattern(1, depth, order)[-1]
    assert model.reads == [largest + 1]
    assert np.array_equal(schedule_rhos(predictors),
                          rho_sequence(Ar1Fading(0.9), depth, 1.0, order))


def test_tabulated_table_must_reach_the_schedules_largest_lag():
    # at L = 3, order 4, subchannel 1 looks back at 1, 4, 7, 10
    largest = max(schedule_lag_pattern(l, 3, 4)[-1] for l in (1, 2))
    assert largest == 10

    def table(max_lag):
        lags = tuple(range(max_lag + 1))
        return TabulatedFading(lags=lags, values=tuple(0.9 ** t for t in lags))

    assert np.array_equal(rho_sequence(table(largest), 3, 1.0, 4),
                          rho_sequence(Ar1Fading(0.9), 3, 1.0, 4))
    with pytest.raises(ValueError, match="lag 10 beyond tabulated range 9"):
        rho_sequence(table(largest - 1), 3, 1.0, 4)
    # the one read asks for the schedule's largest lag, however short the table
    with pytest.raises(ValueError, match="lag 10 beyond tabulated range 5"):
        rho_sequence(table(5), 3, 1.0, 4)
