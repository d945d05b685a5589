"""PSK constellations, random codebooks, and synthetic decode-ready blocks.

A block bundles what a decoder sees: received samples x, the unit-variance
channel reference h_hat, the effective SNR rho, and (for bookkeeping) the
transmitted symbol indices and the unit-variance residual noise, tied by the
exact identity x[k] = sqrt(rho) * h_hat[k] * theta[s[k]] + residual[k].
"""

import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingModel, generate_path
from .prediction import PredictionResult, prediction_reference
from .utils import block_step, complex_normal, derive_seed

_LOW_WORD = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class PskConstellation:
    """J-ary PSK: points[j] = exp(2*pi*i*j / J), j = 0..J-1 (unit energy)."""

    order: int
    points: np.ndarray

    @property
    def bits_per_symbol(self) -> float:
        return math.log2(self.order)


def make_constellation(order: int) -> PskConstellation:
    if int(order) < 1:
        raise ValueError("constellation order must be >= 1")
    j = np.arange(int(order))
    points = np.exp(2j * math.pi * j / int(order))
    return PskConstellation(order=int(order), points=points)


@dataclass(frozen=True)
class Codebook:
    """size x block_length symbol indices, i.i.d. uniform over the alphabet."""

    constellation: PskConstellation
    symbols: np.ndarray

    @property
    def size(self) -> int:
        return self.symbols.shape[0]

    @property
    def block_length(self) -> int:
        return self.symbols.shape[1]


def generate_codebook(constellation: PskConstellation, size: int,
                      block_length: int, seed: int) -> Codebook:
    """size x block_length symbols, equal to
    np.random.default_rng(seed).integers(0, J, size=(size, block_length)).

    The symbols are read from the PCG64 generator's raw 64-bit outputs, each
    split into two 32-bit words (low half first), by numpy's bounded-integer
    rule for J <= 2^32 (Lemire 2019): with m = word * J, the symbol is
    m >> 32, and the word is rejected when m mod 2^32 < 2^32 mod J, which
    never happens for a power-of-two J.  Words are drawn and written a block
    at a time, so no temporary outgrows the cache.
    """
    if size < 1 or block_length < 1:
        raise ValueError("codebook size and block length must be positive")
    symbols = np.empty((size, block_length), dtype=np.int64)
    _fill_bounded(np.random.PCG64(int(seed)), constellation.order,
                  symbols.reshape(-1))
    return Codebook(constellation=constellation, symbols=symbols)


def _fill_bounded(bitgen: np.random.PCG64, order: int, out: np.ndarray):
    """Fill the int64 vector `out` with uniform integers in [0, order).

    Each block of `out` is computed in place, viewed as uint64: the next
    words, times J, shifted down 32 bits.  A block takes as many words as it
    has room for and keeps the accepted ones, so the next block starts right
    after them.
    """
    reject_below = (1 << 32) % order
    step = block_step(1)
    dest = out.view(np.uint64)
    spare = None                  # high half of the last raw output, unused
    filled = 0
    while filled < len(dest):
        block = dest[filled:filled + step]
        lead = 0 if spare is None else 1
        if lead:
            block[0] = spare
        words = bitgen.random_raw((len(block) - lead + 1) // 2).view(np.uint32)
        block[lead:] = words[:len(block) - lead]
        spare = words[-1] if len(words) > len(block) - lead else None
        block *= np.uint64(order)
        n = len(block)
        if reject_below:
            keep = (block & _LOW_WORD) >= reject_below
            n = int(np.count_nonzero(keep))
            block[:n] = block[keep]
        block[:n] >>= np.uint64(32)
        filled += n


@dataclass
class PscBlock:
    x: np.ndarray
    h_hat: np.ndarray
    s: np.ndarray
    rho: float
    residual_noise: np.ndarray

    @property
    def block_length(self) -> int:
        return len(self.x)


def synthesize_psc_block(constellation: PskConstellation, codeword: np.ndarray,
                         fading_samples: np.ndarray, prediction: PredictionResult,
                         snr: float, seed: int) -> PscBlock:
    """Simulate one predicted-fading subchannel block.

    `fading_samples` is a contiguous true-fading path of length block_length +
    max(lag_pattern); the last block_length entries are the transmitted
    instants and earlier ones feed the predictor.  Each instant is predicted
    from past noisy observations (observation SNR from the predictor spec),
    the prediction is scaled to unit variance as the channel reference, and
    the prediction error plus thermal noise is scaled to unit variance as the
    residual.  The emitted x satisfies the synthesis identity exactly.
    """
    codeword = np.asarray(codeword)
    fading = np.asarray(fading_samples)
    if codeword.ndim != 1 or len(codeword) < 1:
        raise ValueError("codeword must be a non-empty index vector")
    if codeword.min() < 0 or codeword.max() >= constellation.order:
        raise ValueError("codeword contains indices outside the constellation")
    if not snr > 0.0:
        raise ValueError("snr must be positive")
    horizon = max(prediction.spec.lag_pattern)
    n = len(codeword)
    if len(fading) != n + horizon:
        raise ValueError(
            f"need block_length + {horizon} fading samples, got {len(fading)}")

    rng = np.random.default_rng(int(seed))
    gamma = prediction.spec.observation_snr
    obs = fading.astype(complex).copy()
    if not math.isinf(gamma):
        obs += complex_normal(rng, len(fading)) / math.sqrt(gamma)

    raw, h_hat = prediction_reference(prediction, obs,
                                      np.arange(horizon, horizon + n))
    if h_hat is None:
        # degenerate predictor (rho = 0): any unit-variance reference works
        h_hat = complex_normal(rng, n)
    s2 = prediction.error_variance
    err = fading[horizon:] - raw
    thermal = complex_normal(rng, n)
    theta = constellation.points[codeword]
    residual = (math.sqrt(snr) * err * theta + thermal) / math.sqrt(1.0 + snr * s2)
    rho = prediction.effective_snr
    x = np.sqrt(rho) * h_hat * theta + residual
    return PscBlock(x=x, h_hat=h_hat, s=codeword.copy(), rho=float(rho),
                    residual_noise=residual)


def synthesize_block_at_rho(model: FadingModel, rho: float,
                            constellation: PskConstellation, block_length: int,
                            seed: int) -> PscBlock:
    """Block at a pinned effective SNR with model-correlated reference and noise.

    Reference and residual are independent unit-variance paths of `model`
    (each sample is CN(0,1) regardless of the correlation), the symbols are
    i.i.d. uniform, and x is built from the synthesis identity.  An
    uncorrelated `model` gives the memoryless case.
    """
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if block_length < 1:
        raise ValueError("block length must be positive")
    h_hat = generate_path(model, block_length, derive_seed(seed, 1))
    residual = generate_path(model, block_length, derive_seed(seed, 2))
    rng = np.random.default_rng(derive_seed(seed, 3))
    s = rng.integers(0, constellation.order, size=block_length)
    x = np.sqrt(rho) * h_hat * constellation.points[s] + residual
    return PscBlock(x=x, h_hat=h_hat, s=s, rho=float(rho), residual_noise=residual)
