"""Coherent PSK capacity over memoryless Rayleigh fading, two independent ways.

With a unit-variance channel reference H known at the receiver, noise Z, and
equiprobable J-ary PSK input, the mutual information in nats is

    I(J, rho) = log J - E log sum_j exp(|Z|^2 - |sqrt(rho) H (theta_0 -
                theta_j) + Z|^2),

estimated either by seeded Monte Carlo (with a standard-error CI) or by
nested Gauss-Hermite quadrature over the four real Gaussian dimensions.  The
quadrature route has no sampling noise and validates the Monte Carlo one.
The module also assembles per-subchannel capacity ladders for interleaved
training schedules.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .fading import FadingModel
from .prediction import DEFAULT_PREDICTOR_ORDER, rho_sequence
from .utils import block_step, complex_normal, derive_seed, log_mean_exp

DEFAULT_MC_SAMPLES = 400_000
QUADRATURE_NODES = 64
_MC_CHUNK = 1 << 16
NATS_TO_BITS = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class CapacityEstimate:
    nats: float            # clamped into [0, log J]
    ci: float              # 95% half-width, standard-error based
    raw_nats: float        # unclamped estimator value
    clamped: bool

    @property
    def bits(self) -> float:
        return self.nats * NATS_TO_BITS


def _log_likelihood_ratio_sum(h: np.ndarray, z: np.ndarray,
                              points: np.ndarray, rho: float) -> np.ndarray:
    """log sum_j exp(|z|^2 - |sqrt(rho) h (theta_0 - theta_j) + z|^2)."""
    shift = np.sqrt(rho) * h * (points[0] - points)[:, None] + z
    expo = np.abs(z) ** 2 - np.abs(shift) ** 2
    return log_mean_exp(expo, expo.max(axis=0))


def psk_capacity(order: int, rho: float, n_samples: int = DEFAULT_MC_SAMPLES,
                 seed: int = 0) -> CapacityEstimate:
    """Monte Carlo estimate of I(J, rho) in nats.

    Parameters
    ----------
    order : int
        Constellation size J >= 1.
    rho : float
        Average SNR (linear); must be non-negative.
    n_samples : int
        Independent channel draws; the CI half-width shrinks as 1/sqrt(n).
    seed : int
        Seed for the private generator; fixed inputs give a fixed estimate.
    """
    if order < 1:
        raise ValueError("constellation order must be >= 1")
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    points = np.exp(2j * math.pi * np.arange(order) / order)
    rng = np.random.default_rng(int(seed))
    step = block_step(order)
    total = 0.0
    total_sq = 0.0
    left = n_samples
    while left > 0:
        # the draw per _MC_CHUNK fixes the stream and the order of the sums;
        # the (J, m) table is built a cache-sized block of columns at a time
        m = min(left, _MC_CHUNK)
        h = complex_normal(rng, m)
        z = complex_normal(rng, m)
        vals = np.empty(m)
        for start in range(0, m, step):
            cols = slice(start, start + step)
            vals[cols] = _log_likelihood_ratio_sum(h[cols], z[cols], points, rho)
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        left -= m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean ** 2, 0.0)
    raw = math.log(order) - mean
    ci = 1.96 * math.sqrt(var / n_samples)
    value = min(max(raw, 0.0), math.log(order))
    return CapacityEstimate(nats=value, ci=ci, raw_nats=raw,
                            clamped=bool(value != raw))


def psk_capacity_quadrature(order: int, rho: float,
                            nodes: int = QUADRATURE_NODES) -> float:
    """Deterministic I(J, rho) by nested 2-D Gauss-Hermite quadrature.

    The outer rule integrates over Re/Im of the channel reference, the inner
    one over Re/Im of the noise; `nodes` points per real dimension (>= 64 by
    default).  Each real part is N(0, 1/2), so with physicists' Hermite nodes
    t and weights w the expectation of f is sum w_i f(t_i) / sqrt(pi) per
    dimension.
    """
    if order < 1:
        raise ValueError("constellation order must be >= 1")
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    points = np.exp(2j * math.pi * np.arange(order) / order)
    t, w = hermgauss(nodes)
    h_grid = (t[:, None] + 1j * t[None, :]).ravel()
    w2 = (w[:, None] * w[None, :]).ravel() / math.pi
    z_grid = h_grid
    z_sq = np.abs(z_grid) ** 2

    expect = 0.0
    for start in range(0, len(h_grid), 64):
        h = h_grid[start:start + 64]
        shift = np.sqrt(rho) * h[:, None] * (points[0] - points)[:, None, None] \
            + z_grid
        expo = z_sq - np.abs(shift) ** 2
        inner = log_mean_exp(expo, expo.max(axis=0))
        expect += float(np.dot(w2[start:start + 64], inner @ w2))
    return math.log(order) - expect


@dataclass
class RateLadder:
    interleave_depth: int
    rho: np.ndarray
    capacity_nats: np.ndarray
    capacity_ci: np.ndarray
    l_average: float
    convergence_gap: float


def _ladder_arrays(model, depth, snr, order, predictor_order, n_samples, seed,
                   stream_base):
    rhos = rho_sequence(model, depth, snr, predictor_order)
    caps = np.zeros(depth)
    cis = np.zeros(depth)
    for l in range(depth):
        if rhos[l] == 0.0:
            continue  # pilot subchannel: capacity 0 by definition, no sampling
        est = psk_capacity(order, float(rhos[l]), n_samples,
                           derive_seed(seed, stream_base + l))
        caps[l] = est.nats
        cis[l] = est.ci
    return rhos, caps, cis


def rate_ladder(model: FadingModel, interleave_depth: int, snr: float,
                order: int, predictor_order: int = DEFAULT_PREDICTOR_ORDER,
                n_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> RateLadder:
    """Per-subchannel capacities under the interleaved training schedule.

    l_average is the plain mean over the `interleave_depth` subchannels
    (pilot included at zero) and doubles as the finite-depth estimate of the
    scheme's limiting rate; convergence_gap compares it against the same
    quantity at half the depth.
    """
    if interleave_depth < 1:
        raise ValueError("interleave depth must be >= 1")
    rhos, caps, cis = _ladder_arrays(model, interleave_depth, snr, order,
                                     predictor_order, n_samples, seed, 0)
    l_avg = float(caps.mean())
    if interleave_depth >= 2:
        half = interleave_depth // 2
        _, caps_half, _ = _ladder_arrays(model, half, snr, order,
                                         predictor_order, n_samples, seed, 10_000)
        gap = abs(l_avg - float(caps_half.mean()))
    else:
        gap = 0.0
    return RateLadder(
        interleave_depth=int(interleave_depth),
        rho=rhos,
        capacity_nats=caps,
        capacity_ci=cis,
        l_average=l_avg,
        convergence_gap=gap,
    )
