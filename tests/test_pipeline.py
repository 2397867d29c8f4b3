import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from pumpedsu11 import (ChannelSpec, InterferometerConfig, PumpDepletedError,
                        apply_symplectic, max_tritter_angle,
                        number_mean, number_sum_moments, number_sum_quadratic_response,
                        particle_numbers_after_tritter, phase_channel,
                        pre_measurement_state, pump_depletion, pumped_input_state,
                        pumped_two_mode_squeezer, purity, reduce_to_modes,
                        run_interferometer, tritter)
from conftest import random_config


def _config(kind="squeezing", nbar=1e4, r=1.0, theta=0.4, eps=0.0, **kw):
    return InterferometerConfig(nbar=nbar, r=r, theta=theta,
                                channel=ChannelSpec(kind, 1.0, kw.pop("channel_phase", 0.6), eps),
                                **kw)


def test_pump_depletion_no_squeezing():
    assert pump_depletion(50.0, 0.0) == (50.0, 0.0)


def test_pump_depletion_splits_and_conserves():
    n0, n = pump_depletion(1e6, 2.0)
    assert n == pytest.approx(26.308232836016483, rel=1e-12)
    assert n0 == pytest.approx(999973.691767164, rel=1e-12)
    assert n0 + n == pytest.approx(1e6, rel=1e-14)


def test_pump_depletion_raises_when_exhausted():
    with pytest.raises(PumpDepletedError):
        pump_depletion(10.0, 2.0)  # 2 sinh^2 2 = 26.3 > 10


def test_half_pipelines_trivial_case():
    cfg = _config(r=0.0, theta=0.0)
    s_plus, s_minus = cfg.forward_half, cfg.reverse_half
    assert np.allclose(s_plus.matrix, np.eye(6))
    assert np.allclose(s_minus.matrix, np.eye(6))


def test_half_pipelines_are_mutual_inverses(rng):
    for _ in range(20):
        cfg = random_config(rng)
        s_plus, s_minus = cfg.forward_half, cfg.reverse_half
        assert np.max(np.abs(s_minus.matrix @ s_plus.matrix - np.eye(6))) < 1e-10


def test_halves_are_built_fresh_and_the_output_is_their_composition():
    # nothing is cached on a config: each access builds its halves from its own
    # parameters, and a replaced config gets its own
    cfg = _config()
    assert cfg.forward_half is not cfg.forward_half
    assert np.array_equal(cfg.forward_half.matrix,
                          (tritter(0.4) @ pumped_two_mode_squeezer(1.0)).matrix)
    moved = dataclasses.replace(cfg, theta=1.1)
    assert np.array_equal(moved.forward_half.matrix,
                          (tritter(1.1) @ pumped_two_mode_squeezer(1.0)).matrix)
    assert np.array_equal(moved.reverse_half.matrix, moved.forward_half.inverse().matrix)
    # at zero strain the channel is the exact identity
    n0, _ = pump_depletion(cfg.nbar, cfg.r)
    state = pumped_input_state(n0)
    for op in (pumped_two_mode_squeezer(1.0), tritter(0.4)):
        state = apply_symplectic(state, op)
    at_zero = pre_measurement_state(cfg, 0.0)
    assert np.array_equal(at_zero.sigma, state.sigma) and np.array_equal(at_zero.d, state.d)
    for eps in (0.0, 0.3):
        direct = apply_symplectic(pre_measurement_state(cfg, eps), cfg.reverse_half)
        out = run_interferometer(cfg, eps)
        assert np.array_equal(out.sigma, direct.sigma) and np.array_equal(out.d, direct.d)


def test_zero_strain_output_side_modes_are_vacuum(rng):
    for kind in ("squeezing", "mode_mixing", "phase"):
        cfg = random_config(rng, kind=kind)
        out = run_interferometer(cfg, 0.0)
        assert number_mean(out, modes=(1, 2)) == pytest.approx(0.0, abs=1e-10)
        side = reduce_to_modes(out, (1, 2))
        assert np.allclose(side.sigma, np.eye(4), atol=1e-9)


def test_zero_strain_full_chain_is_identity(rng):
    for kind in ("squeezing", "mode_mixing", "phase"):
        cfg = random_config(rng, kind=kind)
        s_plus, s_minus = cfg.forward_half, cfg.reverse_half
        chain = s_minus.matrix @ cfg.channel.three_mode(0.0).matrix @ s_plus.matrix
        assert np.max(np.abs(chain - np.eye(6))) < 1e-10


def test_phase_channel_without_tritter_is_bare_su11():
    # regression: at theta = 0 the pipeline must reduce to squeezer,
    # phase rotation, reverse squeezer acting on the displaced vacuum
    cfg = _config(kind="phase", nbar=400.0, r=0.9, theta=0.0, eps=0.8,
                  squeeze_phase=0.5, pump_phase=0.2)
    out = run_interferometer(cfg)
    n0, _ = pump_depletion(400.0, 0.9)
    direct = pumped_input_state(n0, 0.2)
    for op in (pumped_two_mode_squeezer(0.9, 0.5), phase_channel(0.8),
               pumped_two_mode_squeezer(-0.9, 0.5)):
        from pumpedsu11 import apply_symplectic
        direct = apply_symplectic(direct, op)
    assert np.max(np.abs(out.sigma - direct.sigma)) < 1e-12
    assert np.max(np.abs(out.d - direct.d)) < 1e-12


def test_output_mean_converges_to_quadratic_response():
    # the closed-form response is the leading eps^2 coefficient; the pipeline
    # mean deviates from it linearly in eps (cubic terms in the moments)
    cfg = _config(nbar=100.0, r=1.0, theta=0.3, squeeze_phase=1.1,
                  pump_phase=0.2, tritter_phase=0.5)
    mean_c, _ = number_sum_quadratic_response(cfg)
    devs = []
    for eps in (0.04, 0.004, 0.0004):
        side = reduce_to_modes(run_interferometer(cfg, eps), (1, 2))
        mean, _ = number_sum_moments(side)
        devs.append(abs(mean - mean_c * eps ** 2) / (mean_c * eps ** 2))
    assert devs[0] < 0.05
    assert devs[2] < 1e-3
    # linear convergence: each tenfold strain reduction cuts the deviation ~10x
    assert devs[1] / devs[0] < 0.2 and devs[2] / devs[1] < 0.2


def test_mode_mixing_conserves_total_number(rng):
    # a passive channel adds no particles: the three-mode state entering the
    # measurement stage carries exactly the input total for any strain
    for _ in range(10):
        cfg = random_config(rng, kind="mode_mixing", nbar_range=(10.0, 1e4))
        for eps in (0.0, 0.05, 0.3):
            pre = pre_measurement_state(cfg, eps)
            assert number_mean(pre) == pytest.approx(cfg.nbar, rel=1e-9)
        # the return-path un-squeezer takes its particles back out, so the
        # quiescent output carries the depleted pump population only
        out = run_interferometer(cfg, 0.0)
        n0, _ = pump_depletion(cfg.nbar, cfg.r)
        assert number_mean(out) == pytest.approx(n0, rel=1e-9)


def test_full_pipeline_output_is_pure(rng):
    for _ in range(10):
        cfg = random_config(rng)
        assert purity(run_interferometer(cfg, 0.2)) == pytest.approx(1.0, abs=1e-10)
        assert purity(pre_measurement_state(cfg, 0.2)) == pytest.approx(1.0, abs=1e-10)


def test_particle_numbers_after_tritter_limits():
    assert particle_numbers_after_tritter(100.0, 4.0, 0.0) == (100.0, 4.0)
    pump, side = particle_numbers_after_tritter(100.0, 4.0, np.pi / 2)
    assert pump == pytest.approx(2.0, rel=1e-12)          # n/2
    assert side == pytest.approx(102.0, rel=1e-12)        # n0 + n/2


def test_particle_numbers_conserved(rng):
    for _ in range(200):
        n0, n = rng.uniform(0, 1e6), rng.uniform(0, 1e3)
        pump, side = particle_numbers_after_tritter(n0, n, rng.uniform(0, np.pi / 2))
        assert pump + side == pytest.approx(n0 + n, rel=1e-12)


def test_max_tritter_angle_reference_point():
    theta = max_tritter_angle(0.0, 0.1)
    assert theta ** 2 == pytest.approx(0.09380582686549403, abs=2e-12)
    assert theta ** 2 / np.sin(theta) ** 2 == pytest.approx(1.031864095520434, rel=1e-12)


def test_max_tritter_angle_against_root_solve():
    # oracle: solve n(theta) = delta * n0(theta) directly
    gamma, delta = 0.001, 0.05
    f = lambda th: (np.sin(th) ** 2 + 0.5 * gamma * (1 + np.cos(th) ** 2)) \
        - delta * (np.cos(th) ** 2 + 0.5 * gamma * np.sin(th) ** 2)
    oracle = brentq(f, 1e-6, np.pi / 4, xtol=1e-15)
    assert max_tritter_angle(gamma, delta) == pytest.approx(oracle, abs=1e-12)


def test_max_tritter_angle_reproduces_ratio(rng):
    for _ in range(50):
        delta = rng.uniform(0.01, 0.2)
        gamma = rng.uniform(0.0, delta)
        theta = max_tritter_angle(gamma, delta)
        pump, side = particle_numbers_after_tritter(1.0, gamma, theta)
        assert side / pump == pytest.approx(delta, rel=1e-9)


def test_max_tritter_angle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        max_tritter_angle(0.2, 0.1)
    with pytest.raises(ValueError):
        max_tritter_angle(-0.1, 0.1)


def test_max_tritter_angle_broadcasts(rng):
    delta = rng.uniform(0.01, 0.2, 40)
    gamma = rng.uniform(0.0, 1.0, 40) * delta
    theta = max_tritter_angle(gamma, delta)
    assert theta.shape == (40,)
    for g, d, t in zip(gamma, delta, theta):
        assert max_tritter_angle(g, d) == t
    with pytest.raises(ValueError, match="gamma"):
        max_tritter_angle(np.append(gamma, 0.3), np.append(delta, 0.2))
    with pytest.raises(ValueError, match="small compared to 1"):
        max_tritter_angle(np.array([0.0, 0.5]), np.array([0.1, 1.0]))


def test_config_validates_angle_range_and_depletion():
    with pytest.raises(ValueError):
        _config(theta=2.0)
    with pytest.raises(PumpDepletedError):
        _config(nbar=5.0, r=2.0)


def test_config_rejects_non_finite_values():
    for bad in (dict(nbar=np.nan), dict(nbar=np.inf), dict(r=np.nan),
                dict(theta=np.nan), dict(tritter_phase=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            _config(**bad)
