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

    The symbols come from a _SymbolStream on PCG64(seed), row after row.
    """
    if size < 1 or block_length < 1:
        raise ValueError("codebook size and block length must be positive")
    symbols = np.empty((size, block_length), dtype=np.int64)
    _SymbolStream(constellation.order, np.random.PCG64(int(seed))).fill(
        symbols.reshape(-1))
    return Codebook(constellation=constellation, symbols=symbols)


def codebook_blocks(constellation: PskConstellation, size: int,
                    block_length: int, seed: int):
    """The rows of generate_codebook(...).symbols, a block at a time.

    Yields (start, rows) for consecutive blocks of whole rows, as many as
    fit one utils.BLOCK_ELEMENTS block, so a caller can use each block while
    it is in cache.  Every block is drawn into the same buffer, which the
    caller may overwrite: a block is valid until the next one is drawn.
    """
    if size < 1 or block_length < 1:
        raise ValueError("codebook size and block length must be positive")
    stream = _SymbolStream(constellation.order, np.random.PCG64(int(seed)))
    step = min(block_step(block_length), size)
    buffer = np.empty((step, block_length), dtype=np.int64)
    for start in range(0, size, step):
        rows = buffer[:min(step, size - start)]
        stream.fill(rows.reshape(-1))
        yield start, rows


def codebook_row(constellation: PskConstellation, block_length: int,
                 seed: int, row: int) -> np.ndarray:
    """generate_codebook(constellation, size, block_length, seed).symbols[row]
    for any size > row, drawn without storing the codebook.

    For a power-of-two J every symbol takes one 32-bit word, so the generator
    jumps straight to the row's first word; any other J rejects words, and
    the rows before this one are drawn and dropped.
    """
    if block_length < 1 or row < 0:
        raise ValueError("need a positive block length and a row >= 0")
    bitgen = np.random.PCG64(int(seed))
    stream = _SymbolStream(constellation.order, bitgen)
    skip = int(row) * block_length
    if stream.word_per_symbol:
        bitgen.advance(skip // 2)
        skip %= 2                # an odd start drops the low half
    dropped = np.empty(min(skip, block_step(1)), dtype=np.int64)
    while skip:
        n = min(skip, len(dropped))
        stream.fill(dropped[:n])
        skip -= n
    symbols = np.empty(block_length, dtype=np.int64)
    stream.fill(symbols)
    return symbols


class _SymbolStream:
    """Uniform integers in [0, order), in the order that
    np.random.Generator(bitgen).integers(0, order, ...) draws them.

    The generator's raw 64-bit outputs are split into two 32-bit words, low
    half first, and a word becomes a symbol by numpy's bounded-integer rule
    for J <= 2^32 (Lemire 2019): with m = word * J, the symbol is m >> 32,
    and the word is rejected when m mod 2^32 < 2^32 mod J.  For J = 2^b no
    word is rejected and the symbol is word >> (32 - b).  A fill draws only
    as many words as it has room for, so all the stream carries from one
    fill to the next is the unused high half of the last raw output.
    """

    def __init__(self, order: int, bitgen: np.random.PCG64):
        order = int(order)
        if not 1 <= order <= 1 << 32:
            # numpy draws larger ranges from 64-bit words; the 32-bit rule
            # would reject every word
            raise ValueError("codebooks need a constellation order in [1, 2^32]")
        self._order = np.uint64(order)
        self._bitgen = bitgen
        self._reject_below = (1 << 32) % order
        self._shift = np.uint32(33 - order.bit_length())   # 32 - b for J = 2^b
        self._spare = None

    @property
    def word_per_symbol(self) -> bool:
        return not self._reject_below

    def fill(self, out: np.ndarray):
        """Write the next len(out) symbols into the int64 vector `out`."""
        step = block_step(1)
        filled = 0
        while filled < len(out):
            filled += self._fill_block(out[filled:filled + step])

    def _fill_block(self, block: np.ndarray) -> int:
        """Draw len(block) words and write the symbols of those accepted to
        the front of `block`; return how many there are."""
        spare = self._spare
        lead = 0 if spare is None else 1
        n = len(block) - lead
        words = self._bitgen.random_raw((n + 1) // 2).view(np.uint32)
        self._spare = words[n] if len(words) > n else None
        if self.word_per_symbol:
            if lead:
                block[0] = spare >> self._shift
            np.right_shift(words[:n], self._shift, out=block[lead:])
            return len(block)
        dest = block.view(np.uint64)
        if lead:
            dest[0] = spare
        dest[lead:] = words[:n]
        dest *= self._order
        keep = (dest & _LOW_WORD) >= self._reject_below
        kept = int(np.count_nonzero(keep))
        dest[:kept] = dest[keep]
        dest[:kept] >>= np.uint64(32)
        return kept


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
