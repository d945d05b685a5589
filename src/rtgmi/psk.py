"""PSK constellations, random codebooks, and synthetic decode-ready blocks.

A block bundles what a decoder sees: received samples x, the unit-variance
channel reference h_hat, the effective SNR rho, and (for bookkeeping) the
transmitted symbol indices and the unit-variance residual noise, tied by the
exact identity x[k] = sqrt(rho) * h_hat[k] * theta[s[k]] + residual[k].  No
decoder reads the residual, and simulate's blocks leave it out.

A codebook is i.i.d. uniform over the alphabet of J <= 256 symbols, and a
Codebook is its seed: it stores no symbols, and each read draws them again
from the start of its generator.  They are drawn as packed bytes
(CodebookStream): one random byte carries the symbols of p consecutive
positions, p = 4 for QPSK, so a symbol costs the generator 2 bits rather
than a 32-bit word, and the decoder scores candidates from the bytes
without unpacking them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fading import FadingModel, generate_path
from .prediction import PredictionResult, prediction_reference
from .utils import block_step, complex_normal, derive_seed


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


def packing(order: int):
    """(p, G): the most symbols p <= 8 one byte carries, and G = J^p <= 256.

    J^p values fit a byte only for J <= 256, the orders codebooks support.
    """
    order = int(order)
    if not 1 <= order <= 256:
        raise ValueError("codebooks need a constellation order in [1, 256]")
    p = 8
    while order ** p > 256:
        p -= 1
    return p, order ** p


class CodebookStream:
    """Uniform random bytes that carry p symbols each, from one PCG64.

    The bytes of the generator's raw 64-bit outputs are read low byte first,
    and a byte b >= 256 - (256 mod G) is rejected (none when J is a power of
    two).  An accepted byte stands for v = b mod G, and the base-J digits of
    v, least significant first, are the symbols of p consecutive positions
    of a codeword: a group.  A row of K symbols takes W = ceil(K / p)
    accepted bytes, and the digits past position K are dropped.  The stream
    keeps the accepted bytes it drew but has not handed out yet, so any
    sequence of fills reads the same bytes.
    """

    def __init__(self, order: int, bitgen: np.random.PCG64):
        self.order = int(order)
        self.per_byte, group_size = packing(order)
        self._limit = 256 - 256 % group_size      # the first rejected byte
        self._bitgen = bitgen                     # drawn from its current state
        self._pending = np.empty(0, dtype=np.uint8)

    def skip(self, n: int):
        """Drop the next n accepted bytes, jumping the generator if it can."""
        if self._limit == 256 and not len(self._pending):
            self._bitgen.advance(n // 8)
            n %= 8
        dropped = np.empty(min(n, block_step(1)), dtype=np.uint8)
        while n:
            part = dropped[:min(n, len(dropped))]
            self.fill(part)
            n -= len(part)

    def fill(self, out: np.ndarray):
        """Write the next len(out) accepted bytes into the uint8 vector `out`."""
        filled = min(len(self._pending), len(out))
        out[:filled] = self._pending[:filled]
        self._pending = self._pending[filled:]
        while filled < len(out):
            need = len(out) - filled
            # enough words that the accepted bytes almost always cover the need
            words = -(-need * 256 // (8 * self._limit)) + (self._limit < 256)
            raw = self._bitgen.random_raw(words).astype("<u8", copy=False)
            drawn = raw.view(np.uint8)
            if self._limit < 256:
                drawn = drawn[drawn < self._limit]
            n = min(need, len(drawn))
            out[filled:filled + n] = drawn[:n]
            self._pending = drawn[n:]
            filled += n


@functools.lru_cache(maxsize=None)
def _digit_table(order: int, per_byte: int) -> np.ndarray:
    """(256, p) int64, read-only: row b holds the base-J digits of
    b mod J^p, least significant first."""
    v = np.arange(256) % order ** per_byte
    table = v[:, None] // order ** np.arange(per_byte) % order
    table.flags.writeable = False
    return table


class Codebook:
    """size x block_length symbol indices, i.i.d. uniform over the alphabet,
    read from the byte stream of PCG64(seed) and never stored.

    Row r holds the digits of accepted bytes r * W to (r + 1) * W - 1 of the
    stream, W = ceil(block_length / p) (see CodebookStream).  The book holds
    one generator and its start state, and every read rewinds to that start,
    so reads do not depend on one another.
    """

    def __init__(self, constellation: PskConstellation, size: int,
                 block_length: int, seed: int):
        if size < 1 or block_length < 1:
            raise ValueError("codebook size and block length must be positive")
        self.constellation = constellation
        self.size = int(size)
        self.block_length = int(block_length)
        # W, the bytes of one row; packing refuses orders past 256
        self.groups = -(-self.block_length // packing(constellation.order)[0])
        self._bitgen = np.random.PCG64(int(seed))
        self._start = self._bitgen.state

    def stream(self) -> CodebookStream:
        """The codebook's byte stream, from its first byte."""
        self._bitgen.state = self._start
        return CodebookStream(self.constellation.order, self._bitgen)

    def row(self, r: int) -> np.ndarray:
        """symbols[r], drawn alone.

        For a power-of-two J no byte is rejected, so the generator jumps to
        the raw word that holds the row's first byte; any other J draws the
        rows before this one and drops them.
        """
        r = int(r)
        if not 0 <= r < self.size:
            raise ValueError("codebook row must be in [0, size)")
        stream = self.stream()
        stream.skip(r * self.groups)
        return self._unpack(stream, 1)[0]

    @property
    def symbols(self) -> np.ndarray:
        """The whole (size, block_length) int64 book, drawn on each access."""
        return self._unpack(self.stream(), self.size)

    def _unpack(self, stream: CodebookStream, rows: int) -> np.ndarray:
        """The (rows, block_length) int64 symbols of the stream's next
        rows * W bytes."""
        groups = np.empty((rows, self.groups), dtype=np.uint8)
        stream.fill(groups.reshape(-1))
        digits = np.take(_digit_table(stream.order, stream.per_byte), groups,
                         axis=0)
        return np.ascontiguousarray(
            digits.reshape(rows, -1)[:, :self.block_length])


def generate_codebook(constellation: PskConstellation, size: int,
                      block_length: int, seed: int) -> Codebook:
    """Codebook(constellation, size, block_length, seed)."""
    return Codebook(constellation, size, block_length, seed)


def group_table(per_symbol: np.ndarray) -> np.ndarray:
    """Fold a (K, J) table of per-position, per-symbol terms into the
    (W, 256) table of per-byte sums: entry [g, b] is
    c_{p-1} + (... + (c_1 + c_0)), c_i = per_symbol[g p + i, digit i of
    b mod J^p], with 0.0 past position K.  A row's sum of terms is then the
    sum of its W bytes' entries.
    """
    n, order = per_symbol.shape
    per_byte, group_size = packing(order)
    groups = -(-n // per_byte)
    padded = np.zeros((groups * per_byte, order))
    padded[:n] = per_symbol
    levels = padded.reshape(groups, per_byte, order)
    # outer sums, each new digit the most significant: column
    # d_i J^i + ... + d_0 of the (W, J^(i+1)) partial table
    table = levels[:, 0]
    for i in range(1, per_byte):
        table = np.add(levels[:, i, :, None], table[:, None, :]).reshape(
            groups, -1)
    return table if group_size == 256 \
        else table[:, np.arange(256) % group_size]


@dataclass
class PscBlock:
    x: np.ndarray
    h_hat: np.ndarray
    s: np.ndarray
    rho: float
    residual_noise: np.ndarray = None   # None when untracked (simulate)

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
