import numpy as np
import pytest

import rtgmi.simulate
from rtgmi.capacity import psk_capacity_quadrature
from rtgmi.errors import ConfigurationError
from rtgmi.fading import Ar1Fading
from rtgmi.prediction import rho_sequence
from rtgmi.simulate import MAX_CODEBOOK_SIZE, SchemeConfig, budget_check, run


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
