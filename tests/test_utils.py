import ast
import math
import pathlib

import numpy as np
import pytest

import rtgmi
from rtgmi.utils import (binomial_halfwidth, blocks, complex_normal,
                         derive_seed, log_mean_exp)


def test_derive_seed_range_and_determinism():
    a = derive_seed(12345, 7)
    assert a == derive_seed(12345, 7)
    assert 0 <= a < 2 ** 64
    # distinct indices map to distinct streams for a fixed master seed
    seen = {derive_seed(99, i) for i in range(1000)}
    assert len(seen) == 1000


def test_derive_seed_zero_index_mixes_nothing():
    assert derive_seed(42, 0) == 42


def test_complex_normal_moments():
    rng = np.random.default_rng(5)
    z = complex_normal(rng, 200_000)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    # circular symmetry: E[z^2] = 0
    assert abs(np.mean(z ** 2)) < 0.01


def test_complex_normal_prefix_stable():
    # drawing n samples then extending the same stream reproduces the prefix
    a = complex_normal(np.random.default_rng(3), 100)
    b = complex_normal(np.random.default_rng(3), 5000)
    assert np.array_equal(a, b[:100])


def test_complex_normal_is_the_complex_quotient():
    # the one-pass scaling gives the bits of the complex division it replaced
    z = np.random.default_rng(13).standard_normal((100_003, 2))
    want = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
    assert np.array_equal(complex_normal(np.random.default_rng(13), 100_003),
                          want)


@pytest.mark.parametrize("width", [1, 2, 1001])
@pytest.mark.parametrize("rows", [2, 4, 8, 16])
def test_log_mean_exp_adds_the_rows_in_index_order(rows, width):
    # numpy adds the rows of a wider table one after another, but would sum
    # a single column pairwise from eight rows on; the table goes in blocks
    # of `width` columns
    a = np.random.default_rng(rows).standard_normal((rows, 1001)) * 30.0
    top = a.max(axis=0)
    e = np.exp(a - top)
    acc = e[0].copy()
    for j in range(1, rows):
        acc += e[j]
    got = np.concatenate([log_mean_exp(a[:, k:k + width], top[k:k + width])
                          for k in range(0, 1001, width)])
    assert np.array_equal(got, top + np.log(acc))


def test_log_mean_exp_does_not_overflow():
    # exp(800) overflows a float64; shifting by the column maximum does not
    a = np.array([[800.0, -900.0], [800.0 - math.log(3.0), -900.0]])
    got = log_mean_exp(a, a.max(axis=0)) - math.log(2.0)
    assert np.all(np.isfinite(got))
    assert got == pytest.approx([800.0 + math.log(2.0 / 3.0), -900.0],
                                rel=1e-15)


def test_binomial_halfwidth_hand_values():
    # 1.96 * sqrt(p(1-p)/n) with the Wilson-free plain normal approximation
    assert binomial_halfwidth(0.5, 100) == pytest.approx(1.96 * 0.05)
    assert binomial_halfwidth(0.0, 100) > 0.0   # never reports certainty
    assert binomial_halfwidth(1.0, 50) > 0.0


def test_blocks_of_an_empty_range_are_none():
    assert blocks(0, 4) == []
    assert blocks(5, 4, start=5) == []


def test_blocks_start_past_zero():
    assert blocks(10, 4, start=3) == [slice(3, 7), slice(7, 10)]


@pytest.mark.parametrize("step", [7, 8, 1 << 15])
def test_blocks_one_run_when_the_step_covers_the_range(step):
    assert blocks(7, step) == [slice(0, 7)]
    assert blocks(9, step, start=2) == [slice(2, 9)]


def test_blocks_last_run_is_shorter():
    assert blocks(10, 4) == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert blocks(8, 4) == [slice(0, 4), slice(4, 8)]


@pytest.mark.parametrize("start, stop, step",
                         [(0, 1, 1), (0, 100, 7), (13, 100, 7), (5, 6, 3),
                          (0, 64, 64), (0, 65_537, 1 << 15)])
def test_blocks_tile_the_range_exactly(start, stop, step):
    runs = blocks(stop, step, start)
    covered = np.concatenate([np.arange(stop)[run] for run in runs])
    assert covered.tolist() == list(range(start, stop))
    assert all(0 < run.stop - run.start <= step and run.step is None
               for run in runs)
    assert all(run.stop - run.start == step for run in runs[:-1])


def _stepped_ranges(path: pathlib.Path) -> list:
    """Line numbers of the calls range(start, stop, step) in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "range"
            and len(node.args) == 3]


def test_no_module_but_utils_cuts_a_stepped_range():
    # every cache-block walk goes through utils.blocks, so no kernel's cut
    # is written out by hand
    package = pathlib.Path(rtgmi.__file__).resolve().parent
    found = {path.name: lines for path in sorted(package.glob("*.py"))
             if path.name != "utils.py"
             and (lines := _stepped_ranges(path))}
    assert found == {}
    assert _stepped_ranges(package / "utils.py")    # the guard sees one
