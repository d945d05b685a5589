"""Every blocked kernel gives the same bits whatever the block size.

The kernels stream blocks of utils.BLOCK_ELEMENTS elements, in whole rows or
columns of their tables.  Sizes of 1 and 7 elements give one row or column
per block, or a few; 1000 gives a few dozen; the default, one block here
(the AR(1) path too, whose recursion steps through blocks of
block_step(8) segments of 8 samples, 32 768 samples against its 20 001, and
17 for the Clarke ray sum, whose 4099 rows hold 128 rays each).  The gmi
evaluator rounds its blocks down to whole chunks of gmi._CHUNK columns, at
least one: 1, 7 and 1000 elements give one chunk per block, the default 2
to 16 chunks, so its 20 001 columns end in a partial chunk of a partial
block, and a 2049-column build at J = 3 ends in a run of one column at every
size but the default.  The exact Clarke path is left out: its factor is
stored as blocks of block_step(n) rows, which set the order in which its
product is summed (each stored entry keeps its bits).
"""

import numpy as np
import pytest

from rtgmi import utils
from rtgmi.capacity import psk_capacity, psk_capacity_quadrature
from rtgmi.decoder import decode, pairwise_undercut_probability
from rtgmi.fading import CHOLESKY_MAX_N, Ar1Fading, ClarkeFading, generate_path
from rtgmi.gmi import DEFAULT_MU_RANGE, _LogMgfEvaluator
from rtgmi.psk import (generate_codebook, make_constellation,
                       synthesize_block_at_rho)

BLOCKS = (1, 7, 1000, utils.BLOCK_ELEMENTS)


def _outputs():
    three = make_constellation(3)
    book = generate_codebook(make_constellation(4), 2051, 12, seed=9)
    book3 = generate_codebook(three, 2051, 12, seed=9)
    sent = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, book.constellation,
                                   12, seed=2)
    sent3 = synthesize_block_at_rho(Ar1Fading(0.0), 0.8, three, 12, seed=2)
    undercut = pairwise_undercut_probability(three, 0.6, 5, 2001, seed=3)
    cap = psk_capacity(3, 0.7, n_samples=3001, seed=6)
    out = {
        "codebook": book.symbols,
        "metrics": decode(book, sent, sent_message=0).metrics,
        "metrics 3": decode(book3, sent3).metrics,
        "codebook row 3": book3.row(2050),
        "undercut": np.array([undercut.probability, undercut.ci_halfwidth]),
        "capacity": np.array([cap.raw_nats, cap.ci]),
        "ar1_path": generate_path(Ar1Fading(0.99), 20_001, seed=8),
        "ray_path": generate_path(ClarkeFading(0.05), CHOLESKY_MAX_N + 3,
                                  seed=8),
    }
    lo, hi = DEFAULT_MU_RANGE
    grid = [*np.geomspace(lo, hi, 33), -1.0, 0.0]
    for order in (2, 3, 8, 16):
        c = make_constellation(order)
        blk = synthesize_block_at_rho(Ar1Fading(0.9), 1.3, c, 20_001,
                                      seed=order)
        ev = _LogMgfEvaluator(blk, c)
        out[f"gaps {order}"], out[f"dmin {order}"] = ev.gaps, ev.distances()
        out[f"lambdas {order}"] = np.array(ev.lambdas(grid))
        for mu in (-3.1, -1.0, 0.0):
            out[f"per_sample {order} {mu}"] = ev.per_sample(mu)
            out[f"moments {order} {mu}"] = np.array(ev.moments(mu))
    # 2049 columns: every block size but the default ends the build in a
    # run of one column (seed 2 moved the gaps when that run's complex
    # products were in place)
    c = make_constellation(3)
    ev = _LogMgfEvaluator(synthesize_block_at_rho(Ar1Fading(0.9), 1.3, c,
                                                  2049, seed=2), c)
    out["gaps 2049"], out["dmin 2049"] = ev.gaps, ev.distances()
    out["mean_dmin 2049"] = np.array(ev.mean_dmin)
    out["lambdas 2049"] = np.array(ev.lambdas(grid))
    cap = psk_capacity(8, 0.7, n_samples=3001, seed=6)
    out["capacity 8"] = np.array([cap.raw_nats, cap.ci])
    for order in (3, 8):
        out[f"quadrature {order}"] = psk_capacity_quadrature(order, 0.7,
                                                             nodes=16)
    return out


@pytest.fixture(scope="module")
def default_outputs():
    return _outputs()


@pytest.mark.parametrize("elements", BLOCKS)
def test_block_size_leaves_every_bit(monkeypatch, default_outputs, elements):
    monkeypatch.setattr(utils, "BLOCK_ELEMENTS", elements)
    got = _outputs()
    for name, want in default_outputs.items():
        assert np.array_equal(got[name], want), name
