import re

import numpy as np
import pytest

from pumpedsu11 import (ChannelSpec, GaussianState, InterferometerConfig, RegimeError,
                        apply_symplectic, f0_closed_form, fisher_from_moments,
                        heterodyne_moments, number_sum_moments,
                        number_sum_quadratic_response, optimal_phases,
                        optimal_tritter_angle, qfi_closed_form, qfi_numeric,
                        reduce_to_modes, run_interferometer, sensitivity_number_sum,
                        squeezing_channel, vacuum_state)
from pumpedsu11 import fock
from pumpedsu11.metrology import _REGIMES, _at_config, _point, _Point, _response
from pumpedsu11.pipeline import pre_measurement_state
from conftest import mp_referee, random_config, richardson


def _config(kind, nbar, r, theta, channel_phase=0.0, optimal=True, strength=1.0, **kw):
    if optimal:
        sq, tp = optimal_phases(kind, kw.get("pump_phase", 0.0), channel_phase)
        kw.setdefault("squeeze_phase", sq)
        kw.setdefault("tritter_phase", tp)
    return InterferometerConfig(nbar=nbar, r=r, theta=theta,
                                channel=ChannelSpec(kind, strength, channel_phase), **kw)


# ---------------------------------------------------------------------------
# numeric QFI
# ---------------------------------------------------------------------------

def test_qfi_vacuum_probe_squeezing_channel():
    cfg = _config("squeezing", nbar=1e-12, r=0.0, theta=0.0, optimal=False)
    assert qfi_numeric(cfg) == pytest.approx(0.25, rel=1e-9)


def test_qfi_bare_su11_squeezing_channel():
    # theta = 0, r = 1, optimal phases: H = (1 + sinh^2 2)/4
    cfg = _config("squeezing", nbar=100.0, r=1.0, theta=0.0)
    assert qfi_numeric(cfg) == pytest.approx(3.5385291045020604, rel=1e-9)
    assert qfi_closed_form(cfg, "theta_zero") == pytest.approx(3.5385291045020604, rel=1e-12)


def test_qfi_matches_fock_generator_variance():
    cfg = _config("squeezing", nbar=4.0, r=0.5, theta=0.4, channel_phase=0.6,
                  optimal=False, squeeze_phase=1.1, tritter_phase=0.8, pump_phase=0.2)
    psi, _ = fock.pipeline_state_fock(4.0, 0.2, 0.5, 1.1, 0.4, 0.8, 25)
    gen = fock.channel_generator(fock.FockSpace(3, 25), "squeezing", 1.0, 0.6, (1, 2))
    oracle = fock.generator_variance(psi, gen)
    assert qfi_numeric(cfg) == pytest.approx(oracle, rel=1e-3)


def test_phase_channel_qfi_matches_fock_oracle():
    cfg = InterferometerConfig(nbar=3.0, r=0.4, theta=0.5,
                               channel=ChannelSpec("phase", 1.0),
                               pump_phase=0.2, squeeze_phase=1.1, tritter_phase=0.8)
    psi, leak = fock.pipeline_state_fock(3.0, 0.2, 0.4, 1.1, 0.5, 0.8, 25)
    gen = fock.channel_generator(fock.FockSpace(3, 25), "phase", 1.0, 0.0, (1, 2))
    assert leak < 1e-6
    assert qfi_numeric(cfg) == pytest.approx(fock.generator_variance(psi, gen), rel=1e-6)


def test_mode_mixing_shares_turning_point_at_phase_half_pi():
    nbar, r = 1e6, 2.0
    theta_t = optimal_tritter_angle(nbar, 2.0 * np.sinh(r) ** 2)

    def h_of(theta):
        return qfi_closed_form(_config("mode_mixing", nbar=nbar, r=r,
                                       theta=theta, channel_phase=np.pi / 2))

    step = 1e-5
    slope = (h_of(theta_t + step) - h_of(theta_t - step)) / (2 * step)
    assert abs(slope) < 1e-6 * h_of(theta_t)


def state_qfi(cfg, eps0):
    """H of the pre-measurement state at strain ``eps0``, from its exact tangent."""
    state = pre_measurement_state(cfg, eps0)
    K = cfg.channel.generator()
    k_sigma = K @ state.sigma
    ratio = np.linalg.solve(state.sigma, k_sigma + k_sigma.T)
    d_dot = K @ state.d
    return 0.25 * np.trace(ratio @ ratio) + d_dot @ np.linalg.solve(state.sigma, d_dot)


def test_qfi_independent_of_evaluation_point(rng):
    cfg = random_config(rng)
    values = [state_qfi(cfg, e) for e in (0.0, 0.01, 0.1)]
    assert max(values) - min(values) < 1e-6 * values[0]
    assert qfi_numeric(cfg) == pytest.approx(values[0], rel=1e-9)


def test_tangents_match_finite_differences(rng):
    # the phase channel has no closed form and no Fock check; this is its referee
    for kind in ("squeezing", "mode_mixing", "phase"):
        for _ in range(12):
            cfg = random_config(rng, kind=kind)
            eps0 = rng.uniform(1e-3, 0.05)
            state = pre_measurement_state(cfg, eps0)
            d_dot = richardson(lambda e: pre_measurement_state(cfg, e).d, eps0)
            sigma_dot = richardson(lambda e: pre_measurement_state(cfg, e).sigma, eps0)
            ratio = np.linalg.solve(state.sigma, sigma_dot)
            h_fd = 0.25 * np.trace(ratio @ ratio) + d_dot @ np.linalg.solve(state.sigma, d_dot)
            assert state_qfi(cfg, eps0) == pytest.approx(h_fd, rel=1e-6)
            assert qfi_numeric(cfg) == pytest.approx(h_fd, rel=1e-6)

            _, d_mean, d_var = _at_config(cfg, eps0, "slopes")
            assert d_mean == pytest.approx(
                richardson(lambda e: _at_config(cfg, e, "moments")[0], eps0), rel=1e-6)
            assert d_var == pytest.approx(
                richardson(lambda e: _at_config(cfg, e, "moments")[1], eps0), rel=1e-6)


@pytest.mark.parametrize("kind", ["squeezing", "mode_mixing"])
def test_numeric_qfi_matches_the_closed_form_at_any_squeezing(rng, kind):
    # the input frame inverts no squeezed covariance, so H keeps its digits at
    # large r (measured: 3.8e-13 at most over 2,800 draws)
    for r in (0.5, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0):
        for _ in range(20):
            cfg = InterferometerConfig(
                nbar=10.0 ** rng.uniform(13.0, 15.0), r=r, theta=rng.uniform(0.0, np.pi / 2),
                channel=ChannelSpec(kind, rng.uniform(0.25, 4.0), rng.uniform(0.0, 2 * np.pi)),
                pump_phase=rng.uniform(0.0, 2 * np.pi),
                squeeze_phase=rng.uniform(0.0, 2 * np.pi),
                tritter_phase=rng.uniform(0.0, 2 * np.pi))
            assert qfi_numeric(cfg) == pytest.approx(qfi_closed_form(cfg), rel=1e-12), cfg


def test_kernel_matches_the_60_digit_referee(rng):
    # H of all three kinds, F0 and the side moments against the output-frame
    # pipeline in 60 digits; measured on random phases: 3e-14 at r <= 2 and
    # 1e-13 at r <= 10, and 7e-11 at r = 10 on a lattice of phases that are
    # multiples of pi/2, where the signal is far below its e^4r scale
    for r_max, nbar_range, rtol in ((2.0, (10.0, 1e6), 1e-12), (10.0, (1e9, 1e12), 1e-10)):
        for kind in ("squeezing", "mode_mixing", "phase"):
            for _ in range(15):
                cfg = random_config(rng, kind=kind, r_max=r_max, nbar_range=nbar_range)
                eps0 = rng.uniform(1e-4, 1e-2)
                ref = mp_referee(cfg, eps0)
                got = (qfi_numeric(cfg), sensitivity_number_sum(cfg, eps0)[1],
                       *_at_config(cfg, eps0, "moments"))
                assert got == pytest.approx(
                    (ref["H"], ref["F0"], ref["mean_S"], ref["var_S"]), rel=rtol), cfg


def test_number_sum_slopes_match_output_generator(rng):
    # referee: the output state with K pushed through S^-1, in 60 digits
    for _ in range(100):
        cfg = random_config(rng, kind=rng.choice(["squeezing", "mode_mixing", "phase"]))
        ref = mp_referee(cfg, 1e-3)
        assert _at_config(cfg, 1e-3, "slopes") == pytest.approx(
            (ref["var_S"], ref["d_mean"], ref["d_var"]), rel=1e-12)


# ---------------------------------------------------------------------------
# closed forms and regimes
# ---------------------------------------------------------------------------

def test_exact_closed_form_matches_numeric(rng):
    for _ in range(40):
        cfg = random_config(rng)
        assert qfi_closed_form(cfg) == pytest.approx(qfi_numeric(cfg), rel=1e-6)


def test_theta_zero_regime_is_algebraic_limit(rng):
    for _ in range(50):
        cfg = random_config(rng)
        at_zero = InterferometerConfig(
            nbar=cfg.nbar, r=cfg.r, theta=0.0, channel=cfg.channel,
            pump_phase=cfg.pump_phase, squeeze_phase=cfg.squeeze_phase,
            tritter_phase=cfg.tritter_phase)
        regime = "theta_zero"
        exact = qfi_closed_form(at_zero, "exact")
        if cfg.channel.kind == "squeezing":
            assert qfi_closed_form(at_zero, regime) == pytest.approx(exact, rel=1e-12)
        else:
            # printed shorthand uses n^2 in place of sinh^2(2r) = n(n + 2)
            n = 2.0 * np.sinh(cfg.r) ** 2
            assert qfi_closed_form(at_zero, regime) == pytest.approx(
                0.25 * cfg.channel.strength ** 2 * n ** 2, rel=1e-12)
            assert exact == pytest.approx(
                0.25 * cfg.channel.strength ** 2 * np.sinh(2 * cfg.r) ** 2, rel=1e-12)


def test_mode_mixing_theta_zero_printed_value():
    cfg = _config("mode_mixing", nbar=100.0, r=1.0, theta=0.0)
    assert qfi_closed_form(cfg, "theta_zero") == pytest.approx(1.9074312589602445, rel=1e-12)


def test_pumped_limit_reference_value():
    # B = 1, theta^2 = 0.094, pump 1e6, r = 2: H ~ theta^2 n0 n / 2 = 1.2365e6
    n = 2.0 * np.sinh(2.0) ** 2
    cfg = _config("squeezing", nbar=1e6 + n, r=2.0, theta=np.sqrt(0.094))
    value = qfi_closed_form(cfg, "pumped_limit")
    assert value == pytest.approx(0.5 * 0.094 * 1e6 * n, rel=1e-12)
    assert value == pytest.approx(1.2365e6, rel=1e-3)


def test_regime_misuse_raises():
    cfg = _config("squeezing", nbar=100.0, r=1.0, theta=0.3)
    with pytest.raises(RegimeError):
        qfi_closed_form(cfg, "theta_zero")        # wrong angle
    with pytest.raises(RegimeError):
        qfi_closed_form(cfg, "large_nbar")        # nbar too small
    big = _config("squeezing", nbar=1e6, r=1.0, theta=1.2)
    with pytest.raises(RegimeError):
        qfi_closed_form(big, "pumped")            # beyond the undepleted bound
    skewed = _config("squeezing", nbar=1e6, r=1.0, theta=0.1, optimal=False,
                     squeeze_phase=0.3, tritter_phase=2.0)
    with pytest.raises(RegimeError):
        qfi_closed_form(skewed, "pumped")         # non-optimal phases
    with pytest.raises(ValueError):
        qfi_closed_form(cfg, "no_such_regime")
    phase_cfg = InterferometerConfig(nbar=100.0, r=0.5, theta=0.2,
                                     channel=ChannelSpec("phase", 1.0))
    with pytest.raises(ValueError):
        qfi_closed_form(phase_cfg)


_MODE_MIXING_REGIMES = ("['exact', 'large_nbar', 'large_nbar_limit', 'pumped', 'pumped_limit', "
                        "'theta_half_pi_phi_half_pi', 'theta_half_pi_phi_zero', "
                        "'theta_half_pi_phi_zero_limit', 'theta_zero']")
_PHASE = InterferometerConfig(nbar=1e4, r=1.0, theta=0.3, channel=ChannelSpec("phase", 1.0))


@pytest.mark.parametrize("call, error, message", [
    # r = 4 at nbar = 1e4: n_side / n0 = 1489.5 / 8510.5
    (lambda: qfi_closed_form(_config("squeezing", 1e4, 4.0, 0.01), "pumped"), RegimeError,
     "regime 'pumped' needs an undepleted pump; side/pump ratio 0.175 exceeds 0.1"),
    (lambda: qfi_closed_form(_config("mode_mixing", 1e4, 1.0, 0.01), "no_such_regime"),
     ValueError, f"unknown mode-mixing regime 'no_such_regime'; choose one of "
                 f"{_MODE_MIXING_REGIMES}"),
    (lambda: f0_closed_form(_config("squeezing", 1e4, 1.0, 0.01), "no_such_regime"),
     ValueError, "unknown F0 regime 'no_such_regime'; choose one of "
                 "['exact', 'large_nbar', 'pumped_limit']"),
    # the exact ratio is a regime like the others, refused by kind
    (lambda: f0_closed_form(_PHASE), ValueError, "no closed-form F0 for channel kind 'phase'"),
    (lambda: f0_closed_form(_config("squeezing", 1e4, 1.0, 0.3, strength=0.0)),
     FloatingPointError, "non-positive variance coefficient np.float64(0.0)"),
    (lambda: f0_closed_form(_PHASE, "large_nbar"), ValueError,
     "no closed-form F0 for channel kind 'phase'"),
    # a phase channel is refused by kind first, whatever the regime: once the
    # limit answered at the mode-mixing phase relation (13,811 where F0 is
    # 72,909), and an F0 regime's own refusal came first
    (lambda: f0_closed_form(InterferometerConfig(
        nbar=1e6, r=1.0, theta=0.1, channel=ChannelSpec("phase", 1.0),
        tritter_phase=np.pi / 2), "pumped_limit"), ValueError,
     "no closed-form F0 for channel kind 'phase'"),
    (lambda: f0_closed_form(InterferometerConfig(
        nbar=100.0, r=1.0, theta=0.3, channel=ChannelSpec("phase", 1.0)), "large_nbar"),
     ValueError, "no closed-form F0 for channel kind 'phase'"),
    (lambda: f0_closed_form(_PHASE, "no_such_regime"), ValueError,
     "no closed-form F0 for channel kind 'phase'"),
    (lambda: optimal_tritter_angle(1e6, 20.0, mode="bogus"), ValueError,
     "mode must be 'exact' or 'approx', got 'bogus'"),
    (lambda: optimal_phases("phase"), ValueError,
     "no optimal phase relation for channel kind 'phase'"),
    (lambda: number_sum_quadratic_response(_PHASE), ValueError,
     "no closed-form response for channel kind 'phase'"),
    (lambda: f0_closed_form(_config("squeezing", 1e6, 0.5, 0.1), "pumped_limit"), RegimeError,
     "regime 'pumped_limit' assumes r >> 1, got r = 0.5"),
    (lambda: f0_closed_form(_config("squeezing", 1e6, 1.0, 1.2), "pumped_limit"), RegimeError,
     "regime 'pumped_limit' holds for theta <= 0.3063, got 1.2"),
])
def test_closed_form_refusals_keep_their_words(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_pumped_beats_bare_su11(rng):
    # with a dominant pump, opening the tritter can only help
    for kind in ("squeezing", "mode_mixing"):
        for _ in range(10):
            r = rng.uniform(0.5, 2.0)
            nbar = np.exp(rng.uniform(np.log(1e4), np.log(1e6)))
            theta = rng.uniform(0.02, 0.3)
            opened = _config(kind, nbar=nbar, r=r, theta=theta)
            closed = _config(kind, nbar=nbar, r=r, theta=0.0)
            assert qfi_closed_form(opened) >= qfi_closed_form(closed) * (1 - 1e-9)


# ---------------------------------------------------------------------------
# turning points
# ---------------------------------------------------------------------------

def test_turning_point_against_numeric_maximization():
    # frozen argmax of the exact closed form over theta (scipy bounded search)
    assert optimal_tritter_angle(1e6, 26.308232836016483) == pytest.approx(
        0.7947239697900003, abs=1e-5)
    assert optimal_tritter_angle(1e6, 26.308232836016483, mode="approx") == pytest.approx(
        0.7947, abs=1e-4)


@pytest.mark.parametrize("n_side", [20.0, 26.308232836016483, 100.0])
def test_turning_point_exact_vs_approx(n_side):
    exact = optimal_tritter_angle(1e6, n_side)
    approx = optimal_tritter_angle(1e6, n_side, mode="approx")
    assert abs(exact - approx) < 1e-4


def test_turning_point_derivative_vanishes():
    nbar, r = 1e6, 2.0
    n_side = 2.0 * np.sinh(r) ** 2
    theta_t = optimal_tritter_angle(nbar, n_side)

    def h_of(theta):
        return qfi_closed_form(_config("squeezing", nbar=nbar, r=r, theta=theta))

    step = 1e-5
    slope = (h_of(theta_t + step) - h_of(theta_t - step)) / (2 * step)
    assert abs(slope) < 1e-6 * h_of(theta_t)


def test_turning_point_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        optimal_tritter_angle(10.0, 0.0)
    with pytest.raises(ValueError):
        optimal_tritter_angle(10.0, 20.0)


# ---------------------------------------------------------------------------
# number-sum and heterodyne moments
# ---------------------------------------------------------------------------

def test_number_sum_moments_vacuum():
    assert number_sum_moments(vacuum_state(2)) == (0.0, 0.0)


def test_number_sum_moments_match_fock_oracle():
    psi, leak = fock.prepare_state_fock([fock.TwoModeSqueeze((0, 1), 1.0, 0.0)], 30)
    oracle_mean, oracle_var = fock.number_moments_fock(psi, 30, 2)
    assert leak < 1e-6
    state = apply_symplectic(vacuum_state(2), squeezing_channel(1.0, 0.0))
    mean, var = number_sum_moments(state)
    assert mean == pytest.approx(oracle_mean, rel=1e-6)
    # the n^2 weighting amplifies the truncated tail; variance agrees less tightly
    assert var == pytest.approx(oracle_var, rel=1e-4)
    assert mean == pytest.approx(2.0 * np.sinh(1.0) ** 2, rel=1e-12)
    assert var == pytest.approx(np.sinh(2.0) ** 2, rel=1e-12)


def test_number_sum_moments_coherent_side_mode():
    d = np.array([4.0, 0.0, 0.0, 0.0])
    state = GaussianState(2, d, np.eye(4))
    mean, var = number_sum_moments(state)
    assert mean == pytest.approx(4.0, rel=1e-14)
    assert var == pytest.approx(4.0, rel=1e-14)  # Poissonian


def test_heterodyne_moments_basics():
    assert heterodyne_moments(vacuum_state(2)) == (0.0, 0.0)
    coherent = GaussianState(2, np.array([4.0, 0.0, 0.0, 0.0]), np.eye(4))
    assert heterodyne_moments(coherent)[0] == pytest.approx(4.0, rel=1e-14)
    squeezed = apply_symplectic(vacuum_state(2), squeezing_channel(0.8, 0.4))
    mean, _ = heterodyne_moments(squeezed)
    assert mean == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        heterodyne_moments(vacuum_state(3))


def test_heterodyne_moments_match_fock_oracle():
    ops = [fock.TwoModeSqueeze((0, 1), 0.4, 0.0), fock.Displace(0, 1.0 + 0.5j)]
    psi, _ = fock.prepare_state_fock(ops, 30)
    oracle = fock.number_diff_moments_fock(psi, 30, 2, (0, 1))
    state = apply_symplectic(vacuum_state(2), squeezing_channel(0.4, 0.0))
    d = state.d.copy()
    d[0] += 2.0
    d[1] += 1.0
    mean, var = heterodyne_moments(GaussianState(2, d, state.sigma))
    assert mean == pytest.approx(oracle[0], rel=1e-6)
    assert var == pytest.approx(oracle[1], rel=1e-6)


# ---------------------------------------------------------------------------
# sensitivity and classical Fisher information
# ---------------------------------------------------------------------------

def test_number_sum_is_near_optimal_in_pumped_regime():
    cfg = _config("squeezing", nbar=1e8, r=3.0, theta=0.3)
    h = qfi_numeric(cfg)
    _, f0 = sensitivity_number_sum(cfg)
    assert 0.95 <= f0 / h <= 1.0


def test_sensitivity_matches_closed_fraction():
    # F0(eps0) approaches the closed-form ratio linearly in eps0; one
    # two-point extrapolation reaches the stated 1e-6 agreement
    for kind in ("squeezing", "mode_mixing"):
        cfg = InterferometerConfig(
            nbar=100.0, r=1.0, theta=0.5, channel=ChannelSpec(kind, 1.0, 0.8),
            pump_phase=0.2, squeeze_phase=1.1, tritter_phase=0.5)
        reference = f0_closed_form(cfg)
        coarse = sensitivity_number_sum(cfg, eps0=1e-3)[1]
        fine = sensitivity_number_sum(cfg, eps0=5e-4)[1]
        assert 2 * fine - coarse == pytest.approx(reference, rel=2e-6)
        assert coarse == pytest.approx(reference, rel=1e-3)


def test_sensitivity_mode_mixing_pumped_limit():
    cfg = _config("mode_mixing", nbar=1e8, r=3.0, theta=0.05)
    _, f0 = sensitivity_number_sum(cfg, eps0=1e-4)
    assert f0 == pytest.approx(f0_closed_form(cfg, "pumped_limit"), rel=0.02)


def test_sensitivity_rejects_stationary_point():
    cfg = _config("squeezing", nbar=100.0, r=1.0, theta=0.3)
    with pytest.raises(ValueError):
        sensitivity_number_sum(cfg, eps0=0.0)


def test_sensitivity_bounded_by_qfi(rng):
    for _ in range(15):
        cfg = random_config(rng)
        if cfg.theta < 0.05:  # keep a working margin from the saturation point
            continue
        delta_sq, f0 = sensitivity_number_sum(cfg)
        assert delta_sq > 0
        assert f0 <= qfi_numeric(cfg) * (1 + 1e-9)


def test_f0_closed_form_saturates_at_theta_zero(rng):
    for kind in ("squeezing", "mode_mixing"):
        cfg = InterferometerConfig(
            nbar=150.0, r=0.9, theta=0.0, channel=ChannelSpec(kind, 1.0, 0.7),
            squeeze_phase=rng.uniform(0, 2 * np.pi))
        f0 = f0_closed_form(cfg)
        h = qfi_closed_form(cfg)
        assert f0 <= h * (1 + 1e-9)
        assert f0 == pytest.approx(h, rel=1e-9)  # number-sum saturates the bound here


def test_f0_closed_form_pumped_limit_value():
    n = 2.0 * np.sinh(2.0) ** 2
    cfg = _config("squeezing", nbar=1e6 + n, r=2.0, theta=np.sqrt(0.094))
    f0 = f0_closed_form(cfg, "pumped_limit")
    assert f0 == pytest.approx(1.2365e6, rel=1e-3)
    assert f0 == pytest.approx(qfi_closed_form(cfg, "pumped_limit"), rel=1e-12)


@pytest.mark.parametrize("kind", ["squeezing", "mode_mixing"])
def test_f0_large_nbar_matches_numeric(kind):
    cfg = InterferometerConfig(
        nbar=1e6, r=1.0, theta=0.5, channel=ChannelSpec(kind, 1.0, 0.8),
        pump_phase=0.2, squeeze_phase=1.1, tritter_phase=0.5)
    approx = f0_closed_form(cfg, "large_nbar")
    _, numeric = sensitivity_number_sum(cfg)
    assert approx == pytest.approx(numeric, rel=0.01)


def test_quadratic_response_matches_pipeline_limit(rng):
    # regression for the mode-mixing mean coefficient (the Phi1 form)
    for _ in range(8):
        cfg = random_config(rng, kind="mode_mixing", nbar_range=(10.0, 1e3))
        mean_c, var_c = number_sum_quadratic_response(cfg)
        eps = 1e-4
        side = reduce_to_modes(run_interferometer(cfg, eps), (1, 2))
        mean, var = number_sum_moments(side)
        assert mean == pytest.approx(mean_c * eps ** 2, rel=1e-3)
        assert var == pytest.approx(var_c * eps ** 2, rel=1e-3)


@pytest.mark.parametrize("kind", ["squeezing", "mode_mixing"])
def test_response_grid_equals_the_scalar_calls(rng, kind):
    # bit for bit: a _Point of arrays squares by the same products as one of scalars
    configs = [random_config(rng, kind=kind) for _ in range(200)]
    grid = _Point(*np.array([_point(config) for config in configs]).T)
    mean_c, var_c = _response(kind, grid)
    f0 = _REGIMES[kind, "F0"]["exact"][1](grid)
    for i, config in enumerate(configs):
        assert (mean_c[i], var_c[i]) == number_sum_quadratic_response(config)
        assert f0[i] == f0_closed_form(config)


def test_fisher_exceeds_f0(rng):
    for _ in range(5):
        cfg = random_config(rng)
        eps0 = 0.01
        f = fisher_from_moments(cfg, eps0=eps0)
        _, f0 = sensitivity_number_sum(cfg, eps0=eps0)
        assert f >= f0


def test_fisher_bounded_by_qfi_in_gaussian_regime():
    # strong signal, eps0 large enough that the variance term is subdominant
    cfg = _config("squeezing", nbar=1e8, r=1.0, theta=0.5)
    f = fisher_from_moments(cfg, eps0=0.01)
    assert f <= qfi_numeric(cfg) * (1 + 1e-6)


def test_fisher_variance_term_is_kinematic_at_small_strain():
    # Var ~ eps^2 makes the second term 2/eps0^2 for any configuration; this
    # pins the known breakdown of the Gaussian model at the dark point
    cfg = _config("squeezing", nbar=1e4, r=1.0, theta=0.4)
    eps0 = 1e-3
    f = fisher_from_moments(cfg, eps0=eps0)
    _, f0 = sensitivity_number_sum(cfg, eps0=eps0)
    assert f - f0 == pytest.approx(2.0 / eps0 ** 2, rel=1e-3)


def test_fisher_names_an_overflowing_slope():
    # the squared slope of <S> overflows a float (d<S>/d eps ~ 4e154); the
    # error says so, where a Python float's power raised a bare OverflowError
    cfg = _config("mode_mixing", nbar=1e6, r=0.0, theta=0.5, optimal=False, strength=1e150)
    with pytest.raises(FloatingPointError,
                       match=r"^the square of the slope d<S>/d eps = 4\.0\d*e\+154 overflows$"):
        fisher_from_moments(cfg, eps0=1e-3)
