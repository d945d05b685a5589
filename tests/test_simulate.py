import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import rtgmi.capacity
import rtgmi.simulate
from rtgmi.capacity import psk_capacity_quadrature, rate_ladder
from rtgmi.errors import ConfigurationError
from rtgmi.fading import Ar1Fading, ClarkeFading, generate_path
from rtgmi.prediction import (prediction_reference, rho_sequence,
                              schedule_predictors)
from rtgmi.psk import Codebook, PscBlock, make_constellation
from rtgmi.simulate import (_STREAM_BOOK, _STREAM_MSG, _STREAM_NOISE,
                            _STREAM_PATH, _STRIDE, MAX_CODEBOOK_SIZE,
                            RtReport, SchemeConfig, _size_codebooks,
                            _within_budget, budget_check, run)
from rtgmi.utils import binomial_halfwidth, complex_normal, derive_seed


def small_config(**kw):
    base = dict(model=Ar1Fading(0.95), interleave_depth=3, block_length=24,
                constellation_order=2, snr=2.0, rate_fraction=0.4,
                n_trials=40, master_seed=11, predictor_order=8)
    base.update(kw)
    return SchemeConfig(**base)


def test_config_contracts():
    with pytest.raises(ConfigurationError):
        small_config(interleave_depth=1)
    with pytest.raises(ConfigurationError):
        small_config(block_length=0)
    with pytest.raises(ConfigurationError):
        small_config(constellation_order=1)
    with pytest.raises(ConfigurationError):
        small_config(constellation_order=257)   # a codebook byte holds J <= 256
    with pytest.raises(ConfigurationError):
        small_config(snr=0.0)
    with pytest.raises(ConfigurationError):
        small_config(rate_fraction=0.0)
    with pytest.raises(ConfigurationError):
        small_config(n_trials=0)
    with pytest.raises(ConfigurationError):
        small_config(error_target=1.0)


def test_codebook_cap_raises():
    cfg = SchemeConfig(model=Ar1Fading(0.99), interleave_depth=8,
                       block_length=512, constellation_order=4, snr=1.0,
                       rate_fraction=0.5, n_trials=10, master_seed=0)
    with pytest.raises(ConfigurationError, match="reduce"):
        run(cfg)
    assert MAX_CODEBOOK_SIZE == 65536


def test_rates_are_the_exact_capacity():
    cfg = small_config(constellation_order=4)
    rep = run(cfg)
    for l in range(1, cfg.interleave_depth):
        assert rep.gmi_nats[l] == psk_capacity_quadrature(4, rep.rho[l])
    assert rep.gmi_nats[0] == 0.0


@pytest.mark.parametrize("model", [Ar1Fading(0.95), ClarkeFading(0.05)],
                         ids=["ar1", "clarke"])
def test_rates_are_the_rate_ladders_bit_for_bit(model, monkeypatch):
    cfg = small_config(model=model, interleave_depth=6, constellation_order=4,
                       n_trials=2)
    ladder = rate_ladder(model, 6, cfg.snr, 4, cfg.predictor_order)
    called = []

    def counting(order, rho, *args, **kwargs):
        called.append(rho)
        return psk_capacity_quadrature(order, rho, *args, **kwargs)

    monkeypatch.setattr(rtgmi.capacity, "psk_capacity_quadrature", counting)
    rep = run(cfg)
    assert rep.rho.dtype == ladder.rho.dtype == np.float64
    assert np.array_equal(rep.rho, ladder.rho)
    assert np.array_equal(rep.gmi_nats, ladder.capacity_nats)
    assert np.array_equal(rep.rate_targets,
                          cfg.rate_fraction * ladder.capacity_nats)
    # one integration per distinct rho, the pilot's 0 included
    assert sorted(called) == sorted(set(ladder.rho.tolist()))


def test_size_codebooks_at_the_cap():
    k = 16
    at_cap, past_cap = math.log(65536) / k, math.log(65537) / k
    # the premise: these targets round to the cap and one past it
    assert round(math.exp(at_cap * k)) == MAX_CODEBOOK_SIZE
    assert round(math.exp(past_cap * k)) == MAX_CODEBOOK_SIZE + 1
    sizes = _size_codebooks(np.array([0.0, at_cap, 0.1, 0.0]), k)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [0, MAX_CODEBOOK_SIZE, round(math.exp(1.6)), 1]
    with pytest.raises(ConfigurationError,
                       match=r"for subchannels \[2\]; exhaustive decoding is "
                             r"infeasible, reduce block_length or "
                             r"rate_fraction"):
        _size_codebooks(np.array([0.0, at_cap, past_cap]), k)


@pytest.mark.parametrize("exponent", [50.0, 60.0, 60.5, 1e4])
def test_size_codebooks_refuses_huge_targets_without_overflow(exponent):
    # exp(50) is past int64, and exp(1e4) past a float
    with pytest.raises(ConfigurationError, match=r"for subchannels \[1, 3\]"):
        _size_codebooks(np.array([0.0, exponent / 8, 0.5, exponent / 8]), 8)


def test_codebook_sizes_do_not_depend_on_the_seed():
    a = run(small_config(master_seed=11, n_trials=2))
    b = run(small_config(master_seed=12, n_trials=2))
    assert np.array_equal(a.codebook_sizes, b.codebook_sizes)
    assert np.array_equal(a.gmi_nats, b.gmi_nats)


def test_run_draws_no_gmi_block(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run sized a codebook by sampling")

    monkeypatch.setattr(rtgmi.simulate, "gmi", refuse)
    monkeypatch.setattr(rtgmi.simulate, "synthesize_block_at_rho", refuse)
    rep = run(small_config(n_trials=3))
    assert all(rep.codebook_sizes[1:] >= 1)


def test_run_determinism():
    a = run(small_config())
    b = run(small_config())
    assert np.array_equal(a.per_psc_block_error, b.per_psc_block_error)
    assert a.overall_error == b.overall_error
    assert a.achieved_rate == b.achieved_rate
    assert a.propagation_events == b.propagation_events
    assert np.array_equal(a.codebook_sizes, b.codebook_sizes)


def test_report_accounting_identities():
    rep = run(small_config())
    L = rep.config.interleave_depth
    assert np.allclose(rep.rate_targets,
                       rep.config.rate_fraction * rep.gmi_nats)
    want = float(np.sum(rep.rate_targets * (1.0 - rep.per_psc_block_error)) / L)
    assert rep.achieved_rate == want
    # pilot subchannel never errs and carries no rate
    assert rep.per_psc_block_error[0] == 0.0
    assert rep.rate_targets[0] == 0.0
    assert rep.codebook_sizes[0] == 0
    assert 0.0 <= rep.overall_error <= 1.0
    assert rep.propagation_events <= round(rep.overall_error * rep.config.n_trials)


def test_rho_matches_schedule():
    cfg = small_config()
    rep = run(cfg)
    want = rho_sequence(cfg.model, cfg.interleave_depth, cfg.snr,
                        cfg.predictor_order)
    assert np.allclose(rep.rho, want, rtol=1e-12)
    assert rep.rho[0] == 0.0


def test_first_data_subchannel_ignores_feedback_mode():
    # subchannel 1 predicts from pilots only, so genie and decision-directed
    # runs with the same master seed err identically there
    dd = run(small_config(n_trials=120, rate_fraction=0.9))
    gn = run(small_config(n_trials=120, rate_fraction=0.9, genie=True))
    assert dd.per_psc_block_error[1] == gn.per_psc_block_error[1]
    assert gn.config.genie and not dd.config.genie


def test_genie_no_worse_overall():
    dd = run(small_config(n_trials=120, rate_fraction=0.9))
    gn = run(small_config(n_trials=120, rate_fraction=0.9, genie=True))
    slack = dd.overall_ci + gn.overall_ci
    assert gn.overall_error <= dd.overall_error + slack


def test_propagation_counter():
    # rate above the achievable estimate: nearly every codeword fails, so
    # multi-subchannel error trials are the norm
    rep = run(small_config(block_length=16, rate_fraction=1.2, n_trials=60))
    assert rep.overall_error > 0.5
    assert 1 <= rep.propagation_events <= round(rep.overall_error * rep.config.n_trials)


def test_budget_check_hand_values():
    rep = run(small_config())
    flags = budget_check(rep, 0.05, rep.config.interleave_depth)
    assert flags == [bool(p <= 0.05 / 3 + ci) for p, ci
                     in zip(rep.per_psc_block_error, rep.per_psc_ci)]
    assert rep.budget_met == budget_check(rep, rep.config.error_target,
                                          rep.config.interleave_depth)
    with pytest.raises(ValueError):
        budget_check(rep, 0.0, 3)
    with pytest.raises(ValueError):
        budget_check(rep, 0.05, 0)


def trial_at_a_time_run(config: SchemeConfig) -> RtReport:
    """Slow oracle for run: every trial alone, one 1-D array per quantity,
    tallied as it finishes (decoding through rtgmi.simulate.decode, so a
    test can watch the blocks both runs decode)."""
    depth = config.interleave_depth
    n_k = config.block_length
    const = make_constellation(config.constellation_order)
    predictors = schedule_predictors(config.model, depth, config.snr,
                                     config.predictor_order)
    rhos = np.array([0.0] + [p.effective_snr for p in predictors[1:]])
    rates = np.array([0.0] + [psk_capacity_quadrature(
        config.constellation_order, float(rho)) for rho in rhos[1:]])
    rate_targets = config.rate_fraction * rates
    sizes = _size_codebooks(rate_targets, n_k)

    max_offset = max(max(predictors[l].spec.lag_pattern) for l in range(1, depth))
    warm_slots = int(math.ceil(max_offset / depth))
    total = (warm_slots + n_k) * depth
    sqrt_snr = math.sqrt(config.snr)

    err_counts = np.zeros(depth, dtype=np.int64)
    overall_count = 0
    propagation = 0

    for trial in range(config.n_trials):
        h = generate_path(config.model, total,
                          derive_seed(config.master_seed,
                                      _STREAM_PATH * _STRIDE + trial))
        rng_noise = np.random.default_rng(
            derive_seed(config.master_seed, _STREAM_NOISE * _STRIDE + trial))
        z = complex_normal(rng_noise, total)
        rng_msg = np.random.default_rng(
            derive_seed(config.master_seed, _STREAM_MSG * _STRIDE + trial))

        s_true = np.zeros(total, dtype=np.int64)
        books = [None] + [Codebook(const, sizes[l], n_k, derive_seed(
            config.master_seed, _STREAM_BOOK * _STRIDE + trial * depth + l))
            for l in range(1, depth)]
        sent = np.zeros(depth, dtype=np.int64)
        codewords = [None] * depth
        data_slots = warm_slots + np.arange(n_k)
        for l in range(1, depth):
            sent[l] = rng_msg.integers(0, sizes[l])
            codewords[l] = books[l].row(sent[l])
            s_true[data_slots * depth + l] = codewords[l]

        x_phys = sqrt_snr * h * const.points[s_true] + z

        obs = np.full(total, np.nan + 0j)
        known = np.r_[np.arange(warm_slots * depth),
                      np.arange(warm_slots + n_k) * depth]
        obs[known] = x_phys[known] * np.conj(const.points[s_true[known]]) \
            / sqrt_snr

        trial_errs = np.zeros(depth, dtype=bool)
        for l in range(1, depth):
            pred = predictors[l]
            times = data_slots * depth + l
            _, h_ref = prediction_reference(pred, obs, times)
            if h_ref is None:
                h_ref = np.zeros(n_k, dtype=complex)
            x_block = x_phys[times] \
                / math.sqrt(1.0 + config.snr * pred.error_variance)
            codeword = codewords[l]
            block = PscBlock(x=x_block, h_hat=h_ref, s=codeword,
                             rho=float(rhos[l]))
            outcome = rtgmi.simulate.decode(books[l], block,
                                            sent_message=int(sent[l]))
            trial_errs[l] = not outcome.correct
            if config.genie or outcome.correct:
                fed_back = codeword
            else:
                fed_back = books[l].row(outcome.chosen_message)
            obs[times] = x_phys[times] * np.conj(const.points[fed_back]) \
                / sqrt_snr

        err_counts += trial_errs
        if trial_errs.any():
            overall_count += 1
            first = int(np.flatnonzero(trial_errs)[0])
            if trial_errs[first + 1:].any():
                propagation += 1

    n = config.n_trials
    per_err = err_counts / n
    per_ci = np.array([binomial_halfwidth(float(p), n) for p in per_err])
    overall = overall_count / n
    achieved = float(np.sum(rate_targets * (1.0 - per_err)) / depth)
    return RtReport(
        config=config, rho=rhos, gmi_nats=rates,
        rate_targets=rate_targets, codebook_sizes=sizes,
        per_psc_block_error=per_err, per_psc_ci=per_ci,
        overall_error=float(overall),
        overall_ci=binomial_halfwidth(float(overall), n),
        achieved_rate=achieved,
        budget_met=_within_budget(per_err, per_ci, config.error_target, depth),
        propagation_events=int(propagation),
    )


def assert_same_report(got: RtReport, want: RtReport):
    for field in dataclasses.fields(RtReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


# rate fractions near or past capacity make decodes fail, so decision
# feedback and the propagation tally have something to carry
_ORACLE_CASES = [
    pytest.param(dict(rate_fraction=0.9, genie=True), id="ar1-genie"),
    pytest.param(dict(rate_fraction=1.1), id="ar1-dd"),
    pytest.param(dict(model=ClarkeFading(0.05), rate_fraction=0.9,
                      genie=True), id="clarke-genie"),
    pytest.param(dict(model=ClarkeFading(0.05), rate_fraction=1.1),
                 id="clarke-dd"),
    pytest.param(dict(constellation_order=3, block_length=15,
                      rate_fraction=1.1), id="ternary-dd"),
]


@pytest.mark.parametrize("case", _ORACLE_CASES)
@pytest.mark.parametrize("n_trials", [1, 15, 17, 33])
def test_batched_run_equals_the_trial_at_a_time_oracle(case, n_trials):
    cfg = small_config(n_trials=n_trials, master_seed=2026 + n_trials, **case)
    assert_same_report(run(cfg), trial_at_a_time_run(cfg))


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_every_decode_sees_the_bits_of_a_lone_trial(case, monkeypatch):
    def seen(blocks):
        def recording(book, block, sent_message=None):
            outcome = decode(book, block, sent_message=sent_message)
            blocks.append((block.x.tobytes(), block.h_hat.tobytes(),
                           block.s.tobytes(), block.rho, sent_message,
                           outcome.chosen_message))
            return outcome
        return recording

    decode = rtgmi.simulate.decode
    cfg = small_config(n_trials=20, **case)
    batched, alone = [], []
    monkeypatch.setattr(rtgmi.simulate, "decode", seen(batched))
    run(cfg)
    monkeypatch.setattr(rtgmi.simulate, "decode", seen(alone))
    trial_at_a_time_run(cfg)
    assert len(alone) == 20 * (cfg.interleave_depth - 1)
    # a batch decodes subchannel by subchannel, so only the order differs
    assert sorted(batched) == sorted(alone)


@pytest.mark.parametrize("batch", [1, 1000])
def test_reports_do_not_depend_on_the_batch_size(batch, monkeypatch):
    cfgs = [small_config(n_trials=33, **case.values[0])
            for case in _ORACLE_CASES]
    want = [run(cfg) for cfg in cfgs]
    monkeypatch.setattr(rtgmi.simulate, "_BATCH", batch)
    for cfg, report in zip(cfgs, want):
        assert_same_report(run(cfg), report)


def test_run_memory_does_not_grow_with_the_trial_count(monkeypatch):
    def peak(n_trials):
        cfg = small_config(model=ClarkeFading(0.05), n_trials=n_trials)
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # caches: the Clarke factor, the digit tables
    batch = peak(rtgmi.simulate._BATCH)
    assert peak(200) <= batch + (32 << 10)
    # the check can fail: 200 trials in one batch do hold more
    monkeypatch.setattr(rtgmi.simulate, "_BATCH", 200)
    assert peak(200) > batch + (32 << 10)
