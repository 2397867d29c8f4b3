import numpy as np
import pytest
from scipy.linalg import expm

from pumpedsu11 import (ChannelSpec, apply_symplectic, check_symplectic,
                        embed_on_side_modes, gw_mode_mixing_channel,
                        gw_squeezing_channel, mode_mixing_channel, number_mean,
                        phase_channel, pumped_two_mode_squeezer, squeezing_channel,
                        tritter, tritter_from_generator, vacuum_state)
from pumpedsu11 import fock


def test_squeezer_at_zero_is_identity():
    assert np.allclose(pumped_two_mode_squeezer(0.0, 1.3).matrix, np.eye(6))


def test_squeezer_entries_match_hyperbolic_values():
    S = pumped_two_mode_squeezer(1.0, 0.0).matrix
    assert S[2, 2] == pytest.approx(1.5430806348152437, rel=1e-14)  # cosh 1
    assert S[2, 4] == pytest.approx(1.1752011936438014, rel=1e-14)  # sinh 1
    assert S[3, 5] == pytest.approx(-1.1752011936438014, rel=1e-14)
    assert np.allclose(S[:2, :2], np.eye(2))


def test_squeezer_inverse_composition():
    prod = pumped_two_mode_squeezer(0.8, 0.5).matrix @ pumped_two_mode_squeezer(-0.8, 0.5).matrix
    assert np.max(np.abs(prod - np.eye(6))) < 1e-12


def test_tritter_at_zero_is_identity():
    assert np.allclose(tritter(0.0, 2.1).matrix, np.eye(6))


def test_tritter_at_pi_closed_form_entries():
    S = tritter(np.pi, 0.3).matrix
    assert S[2, 4] == pytest.approx(-1.0, abs=1e-12)   # (1/2)(-1 + cos pi)
    assert S[0, 0] == pytest.approx(-1.0, abs=1e-12)   # cos pi on the pump
    assert S[2, 2] == pytest.approx(0.0, abs=1e-12)


def test_tritter_inverse_composition():
    prod = tritter(0.6, 0.3).matrix @ tritter(-0.6, 0.3).matrix
    assert np.max(np.abs(prod - np.eye(6))) < 1e-12


def test_tritter_matches_generator_exponential():
    a = tritter(0.6, 0.3).matrix
    b = tritter_from_generator(0.6, 0.3).matrix
    assert np.max(np.abs(a - b)) < 1e-8


def test_tritter_generator_grid_agreement():
    # 20 x 20 grid over the full angle/phase range
    for theta in np.linspace(0.0, np.pi, 20):
        for phase in np.linspace(0.0, 2 * np.pi, 20):
            diff = np.max(np.abs(tritter(theta, phase).matrix
                                 - tritter_from_generator(theta, phase).matrix))
            assert diff < 1e-8, (theta, phase, diff)


def test_tritter_generator_is_symplectic():
    assert check_symplectic(tritter_from_generator(0.0, 0.0), tol=1e-10)
    assert check_symplectic(tritter_from_generator(1.2, 4.0), tol=1e-10)


def test_squeezing_channel_entries():
    S = squeezing_channel(0.5, 0.0).matrix
    assert S[0, 0] == pytest.approx(np.cosh(0.5), rel=1e-14)
    assert S[0, 2] == pytest.approx(np.sinh(0.5), rel=1e-14)
    assert np.allclose(squeezing_channel(0.0, 0.7).matrix, np.eye(4))


def test_squeezing_channel_photon_number_matches_fock():
    # oracle: two-mode squeezed vacuum in a truncated Fock space at cutoff 30
    psi, leak = fock.prepare_state_fock([fock.TwoModeSqueeze((0, 1), 0.5, 0.0)], 30)
    oracle_mean, _ = fock.number_moments_fock(psi, 30, 2)
    assert leak < 1e-6
    out = apply_symplectic(vacuum_state(2), squeezing_channel(0.5, 0.0))
    assert number_mean(out) == pytest.approx(oracle_mean, rel=1e-9)
    assert oracle_mean == pytest.approx(2.0 * np.sinh(0.5) ** 2, rel=1e-9)


def test_mode_mixing_channel_swap_structure():
    assert np.allclose(mode_mixing_channel(0.0, 0.9).matrix, np.eye(4))
    S = mode_mixing_channel(np.pi / 2, 0.0).matrix
    assert np.allclose(S[:2, :2], 0.0, atol=1e-12)
    assert np.allclose(S[:2, 2:], np.eye(2), atol=1e-12)
    assert np.allclose(S[2:, :2], -np.eye(2), atol=1e-12)


def test_mode_mixing_preserves_photon_number(rng):
    for _ in range(30):
        state = apply_symplectic(vacuum_state(2),
                                 squeezing_channel(rng.uniform(0, 1.2), rng.uniform(0, 2 * np.pi)))
        before = number_mean(state)
        out = apply_symplectic(state, mode_mixing_channel(rng.uniform(0, np.pi),
                                                          rng.uniform(0, 2 * np.pi)))
        assert number_mean(out) == pytest.approx(before, rel=1e-10)


def test_phase_channel_entries():
    assert np.allclose(phase_channel(0.0).matrix, np.eye(6))
    S = phase_channel(np.pi).matrix
    assert np.allclose(S[2:4, 2:4], [[0, 1], [-1, 0]], atol=1e-12)
    out = apply_symplectic(vacuum_state(3), phase_channel(1.3))
    assert np.allclose(out.sigma, np.eye(6), atol=1e-13)


def test_gw_squeezing_channel_forms():
    assert np.allclose(gw_squeezing_channel(0.0, 0.2).matrix, np.eye(4))
    exact = gw_squeezing_channel(0.3, 0.8, form="exact").matrix
    assert np.allclose(exact, squeezing_channel(0.3, 0.8).matrix)
    # second order differs from exact only at O(s^3)
    s = 0.01
    diff = np.max(np.abs(gw_squeezing_channel(s, 0.8, form="second_order").matrix
                         - squeezing_channel(s, 0.8).matrix))
    assert diff < s ** 3


def test_gw_mode_mixing_channel_matches_generic():
    assert np.allclose(gw_mode_mixing_channel(0.0, 0.2).matrix, np.eye(4))
    assert np.allclose(gw_mode_mixing_channel(0.3, 1.1).matrix,
                       mode_mixing_channel(0.3, 1.1).matrix)
    assert check_symplectic(gw_mode_mixing_channel(0.3, 1.1), tol=1e-10)


def test_embedding_refuses_a_channel_outside_the_strict_tolerance():
    # the second-order channel passes its own widened tolerance (2 s^4 =
    # 1.25e-5) with a residual of 1.56e-6, but not the embedding's 1e-10
    op = gw_squeezing_channel(0.05, 0.3, form="second_order")
    assert op.tol == pytest.approx(1.25e-5)
    assert check_symplectic(op, tol=op.tol) and not check_symplectic(op)
    with pytest.raises(ValueError, match="^refusing to embed a non-symplectic operation$"):
        embed_on_side_modes(op)


def test_gw_mode_mixing_channel_second_order_form():
    # differs from the exact channel only at O(m^3), and, like the squeezing
    # form, passes its own widened tolerance (2 m^4 = 1.25e-5 at m = 0.05) with
    # a residual of m^4 / 4 = 1.56e-6, but not the default 1e-10 nor the embedding
    m = 0.01
    diff = np.max(np.abs(gw_mode_mixing_channel(m, 0.3, form="second_order").matrix
                         - mode_mixing_channel(m, 0.3).matrix))
    assert diff < m ** 3
    op = gw_mode_mixing_channel(0.05, 0.3, form="second_order")
    assert op.tol == pytest.approx(1.25e-5)
    assert check_symplectic(op, tol=op.tol) and not check_symplectic(op)
    with pytest.raises(ValueError, match="^refusing to embed a non-symplectic operation$"):
        embed_on_side_modes(op)


def test_embed_on_side_modes_layout():
    assert np.allclose(embed_on_side_modes(squeezing_channel(0.0)).matrix, np.eye(6))
    op = squeezing_channel(0.4, 1.0)
    emb = embed_on_side_modes(op)
    assert np.allclose(emb.matrix[:2, :2], np.eye(2))
    assert np.allclose(emb.matrix[2:, 2:], op.matrix)
    assert check_symplectic(emb, tol=1e-10)


def test_all_constructors_symplectic_over_random_draws(rng):
    for _ in range(1000):
        r, th = rng.uniform(-2, 2), rng.uniform(0, np.pi)
        ph = rng.uniform(0, 2 * np.pi)
        assert check_symplectic(pumped_two_mode_squeezer(r, ph), tol=1e-10)
        assert check_symplectic(tritter(th, ph), tol=1e-10)
        assert check_symplectic(squeezing_channel(r, ph), tol=1e-10)
        assert check_symplectic(mode_mixing_channel(th, ph), tol=1e-10)
        assert check_symplectic(phase_channel(ph), tol=1e-10)


def test_filled_builders_match_their_generators(rng):
    # squeezer and side channels against expm of a ChannelSpec generator (K with
    # strength 4 is the unit-argument generator of the squeezing and mixing channels)
    for _ in range(200):
        x, ph = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2 * np.pi)
        squeeze = expm(x * ChannelSpec("squeezing", 4.0, ph).generator())
        mixing = expm(x * ChannelSpec("mode_mixing", 4.0, ph).generator())
        pairs = [(pumped_two_mode_squeezer(x, ph), squeeze),
                 (squeezing_channel(x, ph), squeeze[2:, 2:]),
                 (mode_mixing_channel(x, ph), mixing[2:, 2:]),
                 (phase_channel(x), expm(x * ChannelSpec("phase", 1.0).generator()))]
        th = rng.uniform(0.0, np.pi / 2)
        pairs.append((tritter(th, ph), tritter_from_generator(th, ph).matrix))
        for op, reference in pairs:
            assert np.max(np.abs(op.matrix - reference)) < 1e-14


def test_channel_spec_argument_scaling():
    spec = ChannelSpec("squeezing", strength=2.0, phase=0.1, epsilon=0.4)
    assert spec.channel_argument() == pytest.approx(0.2)          # eps*B/4
    assert spec.channel_argument(1.0) == pytest.approx(0.5)
    phase = ChannelSpec("phase", strength=2.0, epsilon=0.4)
    assert phase.channel_argument() == pytest.approx(0.8)         # eps*C

    with pytest.raises(ValueError):
        ChannelSpec("squeeze", 1.0)
    with pytest.raises(ValueError):
        ChannelSpec("squeezing", -1.0)


def test_channel_spec_rejects_non_finite_values():
    for bad in (dict(strength=np.nan), dict(phase=np.inf), dict(epsilon=np.nan)):
        with pytest.raises(ValueError, match="finite"):
            ChannelSpec("squeezing", **bad)


def test_channel_spec_generator_exponentiates_to_channel(rng):
    for kind in ("squeezing", "mode_mixing", "phase"):
        spec = ChannelSpec(kind, rng.uniform(0.25, 4.0), rng.uniform(0.0, 2 * np.pi))
        K = spec.generator()
        assert not K[:2].any() and not K[:, :2].any()  # zero on the pump
        for eps in (-0.7, 0.3, 1.9):
            assert np.max(np.abs(expm(eps * K) - spec.three_mode(eps).matrix)) < 1e-12


def test_channel_spec_three_mode_embedding():
    spec = ChannelSpec("mode_mixing", 1.0, 0.3, 0.2)
    op = spec.three_mode()
    assert op.n_modes == 3
    assert np.allclose(op.matrix[2:, 2:], mode_mixing_channel(0.05, 0.3).matrix)
    assert np.allclose(ChannelSpec("phase", 1.0, epsilon=0.7).three_mode().matrix,
                       phase_channel(0.7).matrix)
