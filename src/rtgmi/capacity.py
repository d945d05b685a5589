"""Coherent PSK capacity over memoryless Rayleigh fading, two independent ways.

With a unit-variance channel reference H known at the receiver, noise Z, and
equiprobable J-ary PSK input, the mutual information in nats is

    I(J, rho) = log J - E log sum_j exp(|Z|^2 - |sqrt(rho) H (theta_0 -
                theta_j) + Z|^2),

estimated either by seeded Monte Carlo over (H, Z) (with a standard-error
CI) or by a radial quadrature rule: rotation invariance leaves t = |H|^2
as the only channel variable, integrated by Gauss-Legendre panels, and the
noise gets a 2-D Gauss-Hermite rule.  The rule has no sampling noise and
matches the exact BPSK and QPSK capacities to 1e-10, so it gives every rate
the command line reports (capacity, sweep and the per-subchannel ladders of
interleaved training schedules), and the Monte Carlo route stays as the
tests' independent check of it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .fading import FadingModel
from .prediction import DEFAULT_PREDICTOR_ORDER, rho_sequence
from .psk import make_constellation
from .utils import block_step, blocks, complex_normal, log_mean_exp

DEFAULT_MC_SAMPLES = 400_000
QUADRATURE_NODES = 64
_MC_CHUNK = 1 << 16
NATS_TO_BITS = 1.0 / math.log(2.0)

# the radial rule's panel ends: where rho t crosses each _SNR_CUTS value and
# where the nearest-neighbour SNR crosses each _PAIR_CUTS value, below _T_MAX
# (Exp(1) puts e^-50 of its mass beyond); the fixed _T_EDGES below the
# smallest of those split the e^-t decay that low SNR leaves to one panel
_SNR_CUTS = (0.1, 1.0, 4.0, 16.0, 64.0)
_PAIR_CUTS = (8.0, 16.0, 32.0, 64.0)
_T_EDGES = (1.0, 4.0, 12.0, 25.0)
_T_MAX = 50.0
_NEGLIGIBLE = 1e-20   # quadrature nodes of smaller weight are dropped
_MAX_NODES = 370      # numpy's hermgauss overflows from 371 nodes on
# rho t (t <= _T_MAX) and a^2 |d|^2 <= 4 rho t overflow a float from rho near
# 1e306 on, while from rho = 1e100 on the rule returns log J to the last bit
# (J = 2 ... 256), so a larger rho is taken as _RHO_MAX
_RHO_MAX = 1e300


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
    points = make_constellation(order).points
    rng = np.random.default_rng(int(seed))
    step = block_step(order)
    total = 0.0
    total_sq = 0.0
    for chunk in blocks(n_samples, _MC_CHUNK):
        # the draw per _MC_CHUNK fixes the stream and the order of the sums;
        # the (J, m) table is built a cache-sized block of columns at a time
        m = chunk.stop - chunk.start
        h = complex_normal(rng, m)
        z = complex_normal(rng, m)
        vals = np.empty(m)
        for cols in blocks(m, step):
            vals[cols] = _log_likelihood_ratio_sum(h[cols], z[cols], points, rho)
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean ** 2, 0.0)
    raw = math.log(order) - mean
    ci = 1.96 * math.sqrt(var / n_samples)
    value = min(max(raw, 0.0), math.log(order))
    return CapacityEstimate(nats=value, ci=ci, raw_nats=raw,
                            clamped=bool(value != raw))


@functools.lru_cache(maxsize=8)
def _noise_rule(nodes):
    """(z, weight): a 2-D Gauss-Hermite rule for CN(0, 1) noise, Im z >= 0.

    Each real part is N(0, 1/2), so with physicists' Hermite nodes x and
    weights w the expectation is sum w_a w_b f(x_a + i x_b) / pi.  The
    integrand below is even under z -> conj(z), so the nodes with Im z < 0
    fold onto their mirror images.  Products below _NEGLIGIBLE are dropped:
    at 64 nodes they are 60% of the grid and weigh 2e-19 together.
    """
    x, w = hermgauss(nodes)
    half = nodes // 2
    w_im = 2.0 * w[half:]
    if nodes % 2:
        w_im[0] = w[half]  # the node on the real axis is its own mirror
    z = (x[:, None] + 1j * x[half:]).ravel()
    weight = (w[:, None] * w_im).ravel() / math.pi
    keep = weight >= _NEGLIGIBLE
    return _frozen(z[keep]), _frozen(weight[keep])


@functools.lru_cache(maxsize=8)
def _legendre(nodes):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    g, w = leggauss(nodes)
    return _frozen((g + 1.0) / 2.0), _frozen(w / 2.0)


def _frozen(a):
    """`a`, read-only: a cached table is shared by every caller."""
    a.setflags(write=False)
    return a


def _radial_rule(order, rho, nodes):
    """(t, weight) for E f(|H|^2): |H|^2 ~ Exp(1), e^-t in the weights.

    The integrand bends where rho t, the SNR a draw sees, passes 1, and
    decays where kappa rho t, the SNR between nearest neighbours, grows, so
    Gauss-Legendre panels end where either reaches one of its cuts, and at
    _T_MAX.  Below the smallest cut, where the integrand is nearly linear in
    t and e^-t carries the whole curvature, panels also end at _T_EDGES: at
    low SNR no cut falls below _T_MAX, and one panel would span it all.
    """
    # kappa = |theta_0 - theta_1|^2 / 4, rounded so that a pair cut that
    # equals an SNR cut (QPSK has three) is the same float and one edge
    kappa = round(math.sin(math.pi / order) ** 2, 12)
    cuts = {c / rho for c in _SNR_CUTS if c < _T_MAX * rho}
    cuts |= {c / (kappa * rho) for c in _PAIR_CUTS if c < _T_MAX * kappa * rho}
    low = min(cuts, default=_T_MAX)
    edges = np.array([0.0] + [t for t in _T_EDGES if t < low] + sorted(cuts)
                     + [_T_MAX])
    g, w = _legendre(max(nodes // 4, 2))
    width = np.diff(edges)[:, None]
    t = (edges[:-1, None] + width * g).ravel()
    weight = (width * w).ravel() * np.exp(-t)
    keep = weight >= _NEGLIGIBLE
    return t[keep], weight[keep]


def psk_capacity_quadrature(order: int, rho: float,
                            nodes: int = QUADRATURE_NODES) -> float:
    """Deterministic I(J, rho) by a radial quadrature rule.

    PSK and circular noise are rotation-invariant, so the reference enters
    only through t = |H|^2 ~ Exp(1), and with a = sqrt(rho t) the exponent
    of term j is -a^2 |d_j|^2 - 2 a Re(d_j conj Z), d_j = theta_0 - theta_j.
    The rule is Gauss-Legendre panels in t (nodes // 4 per panel, _radial_rule)
    times a 2-D Gauss-Hermite rule in Z (`nodes` per real dimension,
    _noise_rule); both node tables are cached.  At the default it matches the
    BPSK and QPSK references to 1e-10 for rho from 0.1 to 100, 8-PSK
    agrees with 128 nodes to 2e-9, and J = 2 to 16 agree with 128 nodes to
    1e-8 relative for rho from 1e-6 to 1e-2.  A rho above _RHO_MAX is
    integrated at _RHO_MAX, where the rule already returns log J; a rho that
    is not finite is refused.
    """
    if order < 1:
        raise ValueError("constellation order must be >= 1")
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho}")
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if not 2 <= nodes <= _MAX_NODES:
        raise ValueError(f"nodes = {nodes}: need 2 to {_MAX_NODES} nodes")
    if rho == 0.0:
        return 0.0  # every symbol looks the same
    rho = min(rho, _RHO_MAX)
    z, z_weight = _noise_rule(nodes)
    t, t_weight = _radial_rule(order, rho, nodes)
    d = 1.0 - make_constellation(order).points
    cross = -2.0 * (d[:, None] * z.conj()).real     # (J, noise nodes)
    dist = -np.abs(d) ** 2
    # the (J, t, noise) table goes a cache-sized block of t nodes at a time;
    # each node's noise sum is a row sum, so no bit depends on the block size
    step = block_step(order * len(z))
    noise_mean = np.empty(len(t))
    for rows in blocks(len(t), step):
        a = np.sqrt(rho * t[rows])
        expo = (a * a)[:, None] * dist[:, None, None] \
            + a[:, None] * cross[:, None, :]
        inner = log_mean_exp(expo, expo.max(axis=0))  # row j = 0 is exactly 0
        noise_mean[rows] = (inner * z_weight).sum(axis=1)
    return math.log(order) - float(np.sum(t_weight * noise_mean))


@dataclass
class RateLadder:
    interleave_depth: int
    rho: np.ndarray
    capacity_nats: np.ndarray
    l_average: float
    convergence_gap: float


def ladder_capacities(order: int, rhos: np.ndarray) -> np.ndarray:
    """psk_capacity_quadrature at each effective SNR in `rhos` (0 for a
    pilot), integrating each distinct rho once: rungs past the predictor
    order repeat one rho."""
    rungs = rhos.tolist()
    known = {rho: psk_capacity_quadrature(order, rho)
             for rho in dict.fromkeys(rungs)}
    return np.array([known[rho] for rho in rungs])


def rate_ladder(model: FadingModel, interleave_depth: int, snr: float,
                order: int,
                predictor_order: int = DEFAULT_PREDICTOR_ORDER) -> RateLadder:
    """Per-subchannel capacities under the interleaved training schedule.

    Each rung is psk_capacity_quadrature at the subchannel's effective SNR
    (0 for the pilot), so the ladder carries no sampling noise.  l_average is
    the plain mean over the `interleave_depth` subchannels (pilot included at
    zero) and doubles as the finite-depth estimate of the scheme's limiting
    rate; convergence_gap compares it against the same quantity at half the
    depth.
    """
    if interleave_depth < 1:
        raise ValueError("interleave depth must be >= 1")
    rhos = rho_sequence(model, interleave_depth, snr, predictor_order)
    # the half-depth schedule's rungs go through the same call, so a rho the
    # two schedules share is integrated once
    half = (rho_sequence(model, interleave_depth // 2, snr, predictor_order)
            if interleave_depth >= 2 else np.empty(0))
    caps, caps_half = np.split(ladder_capacities(order, np.r_[rhos, half]),
                               [interleave_depth])
    l_avg = float(caps.mean())
    gap = abs(l_avg - float(caps_half.mean())) if len(half) else 0.0
    return RateLadder(
        interleave_depth=int(interleave_depth),
        rho=rhos,
        capacity_nats=caps,
        l_average=l_avg,
        convergence_gap=gap,
    )
