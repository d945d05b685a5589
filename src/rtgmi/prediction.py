"""One-step linear MMSE fading prediction from noisy past observations.

The predictor sees y[t - tau] = h[t - tau] + e[t - tau] / sqrt(gamma) at the
offsets tau of a lag pattern (gamma is the per-observation SNR; gamma = inf
means noiseless observations) and forms h_hat[t] = sum_a conj(c[a]) * y[t -
tau_a].  The weights solve the normal equations (R + I/gamma) c = r, for
every lag pattern by one dense solve, and the residual variance is
1 - r^H c.  Folding the prediction error into the additive noise and
renormalizing both sides of the channel equation to unit variance turns a
subchannel predicted at error variance s2 and operated at SNR `snr` into a
memoryless-looking channel at effective SNR snr * (1 - s2) / (1 + snr * s2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingModel, _levinson, whole_lag

DEFAULT_PREDICTOR_ORDER = 16
# the (p, p) complex normal equations of this order take 67 MB
MAX_PREDICTOR_ORDER = 2048


@dataclass(frozen=True)
class PredictorSpec:
    """Order, per-observation SNR, and the (positive, ascending) lag pattern."""

    order: int
    observation_snr: float
    lag_pattern: tuple

    def __post_init__(self):
        pattern = tuple(whole_lag(t) for t in self.lag_pattern)
        object.__setattr__(self, "lag_pattern", pattern)
        if self.order < 1 or len(pattern) != self.order:
            raise ValueError("order must be positive and match the lag pattern length")
        if pattern[0] < 1 or any(b <= a for a, b in zip(pattern, pattern[1:])):
            raise ValueError("lag pattern must be strictly increasing and >= 1")
        if not self.observation_snr > 0.0:
            raise ValueError("observation SNR must be positive (inf = noiseless)")


@dataclass(frozen=True)
class PredictionResult:
    coefficients: np.ndarray
    error_variance: float
    effective_snr: float
    spec: PredictorSpec


def solve_hermitian_toeplitz(first_col: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Levinson recursion for T x = b, T Hermitian Toeplitz with first column c.

    O(n^2) time, O(n) storage.  Raises LinAlgError unless T is positive
    definite (a prediction-error energy falls to 1e-300 or below).  The fast
    Toeplitz solver that acceptance criterion 3 checks; no predictor calls
    it (they take the dense solve).
    """
    c = np.asarray(first_col, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    if len(b) != len(c) or len(c) == 0:
        raise ValueError("shape mismatch")
    steps = _levinson(c)
    x = np.array([b[0] / next(steps)[2]])
    for rev, bwd, energy in steps:
        delta = (x * rev).sum()
        x = np.concatenate((x, [0.0])) + ((b[len(x)] - delta) / energy) * bwd
    return x


def _normal_equations(r: np.ndarray, spec: PredictorSpec):
    """(R + I/gamma, r) with R[a, b] = r(l_b - l_a), gathered from r(0), ..., r(l_p)."""
    lags = np.array(spec.lag_pattern)
    noise = 1.0 / spec.observation_snr  # 0.0 for noiseless observations
    gaps = lags[None, :] - lags[:, None]
    cov = r[np.abs(gaps)]
    np.conjugate(cov, out=cov, where=gaps < 0)
    cov[np.diag_indices(spec.order)] += noise
    cross = np.conj(r[lags])  # E{y[t - tau] conj(h[t])}
    return cov, cross


def predictor_coefficients(model: FadingModel, spec: PredictorSpec) -> PredictionResult:
    """One-step MMSE predictor: one dense solve of its normal equations,
    whatever the lag pattern; a singular system raises LinAlgError."""
    return _predictor(model.autocorrelation(spec.lag_pattern[-1] + 1), spec)


def _predictor(r: np.ndarray, spec: PredictorSpec) -> PredictionResult:
    cov, cross = _normal_equations(r, spec)
    try:
        weights = np.linalg.solve(cov, cross)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular normal equations for lag "
                                    f"pattern {spec.lag_pattern}") from exc
    s2 = 1.0 - float(np.real(np.vdot(cross, weights)))
    s2 = min(max(s2, 0.0), 1.0)  # clip 1-ulp excursions only
    return PredictionResult(
        coefficients=weights,
        error_variance=s2,
        effective_snr=effective_snr(s2, spec.observation_snr),
        spec=spec,
    )


def prediction_reference(prediction: PredictionResult, obs: np.ndarray,
                         times: np.ndarray):
    """Predicted fading at `times` and the channel reference, always both.

    The prediction is sum_a conj(c[a]) * obs[t - tau_a]; the reference scales
    it by 1 / sqrt(1 - s2).  A degenerate predictor (s2 = 1) predicts zero,
    and that is its reference: its rho is 0, so no metric reads it.  `obs` may
    be one path or a (B, n) array of B paths, predicted row by row with the
    same operations, lag after lag, so a row's bits do not depend on B.
    """
    raw = np.zeros(obs.shape[:-1] + (len(times),), dtype=complex)
    for a, tau in enumerate(prediction.spec.lag_pattern):
        raw += np.conj(prediction.coefficients[a]) * obs[..., times - tau]
    s2 = prediction.error_variance
    return raw, (raw / math.sqrt(1.0 - s2) if s2 < 1.0 else raw)


def effective_snr(error_variance: float, snr: float) -> float:
    """snr * (1 - s2) / (1 + snr * s2): prediction error folded into the noise."""
    if not 0.0 <= error_variance <= 1.0:
        raise ValueError(f"error variance must be in [0, 1], got {error_variance}")
    if snr < 0.0:
        raise ValueError("snr must be non-negative")
    if math.isinf(snr):
        if error_variance == 0.0:
            return math.inf
        return (1.0 - error_variance) / error_variance
    return snr * (1.0 - error_variance) / (1.0 + snr * error_variance)


def schedule_lag_pattern(psc_index: int, interleave_depth: int, order: int) -> tuple:
    """Offsets of the `order` most recent decodable symbols for one subchannel.

    Under depth-L interleaving, subchannel l occupies times k*L + l and its
    predictor may look back at symbols of subchannels 0..l-1: offsets 1..l in
    the current slot, and the same offsets shifted by whole slots before that.
    """
    l = int(psc_index)
    big_l = int(interleave_depth)
    if not 1 <= l < big_l:
        raise ValueError("data subchannel index must satisfy 1 <= l < L")
    pattern = []
    m = 0
    while len(pattern) < order:
        base = m * big_l
        pattern.extend(base + i for i in range(1, l + 1))
        m += 1
    return tuple(pattern[:order])


def schedule_predictors(model: FadingModel, interleave_depth: int, snr: float,
                        predictor_order: int = DEFAULT_PREDICTOR_ORDER):
    """Per-subchannel PredictionResult list, None for the pilot; one model read."""
    if interleave_depth < 1:
        raise ValueError("interleave depth must be >= 1")
    if not 1 <= predictor_order <= MAX_PREDICTOR_ORDER:
        raise ValueError(f"predictor order must be in [1, "
                         f"{MAX_PREDICTOR_ORDER}], got {predictor_order}")
    if not snr > 0.0:
        raise ValueError("snr must be positive")
    patterns = [schedule_lag_pattern(l, interleave_depth, predictor_order)
                for l in range(1, interleave_depth)]
    r = model.autocorrelation(max([p[-1] for p in patterns], default=0) + 1)
    return [None] + [_predictor(r, PredictorSpec(predictor_order, snr, p))
                     for p in patterns]


def schedule_rhos(predictors) -> np.ndarray:
    """Effective SNR per subchannel of a schedule; the pilot's rho[0] is 0."""
    return np.array([0.0] + [p.effective_snr for p in predictors[1:]])


def rho_sequence(model: FadingModel, interleave_depth: int, snr: float,
                 predictor_order: int = DEFAULT_PREDICTOR_ORDER) -> np.ndarray:
    """Effective SNR per subchannel; the pilot subchannel carries rho[0] = 0."""
    return schedule_rhos(schedule_predictors(model, interleave_depth, snr,
                                             predictor_order))
