import numpy as np
import pytest

from pumpedsu11 import (GaussianState, apply_symplectic, check_symplectic, number_mean,
                        pumped_input_state, pumped_two_mode_squeezer, purity,
                        reduce_to_modes, squeezing_channel, symplectic_form, tritter,
                        vacuum_state)
from pumpedsu11 import fock


def test_vacuum_state_is_identity_covariance():
    state = vacuum_state(2)
    assert np.array_equal(state.d, np.zeros(4))
    assert np.array_equal(state.sigma, np.eye(4))


def test_vacuum_purity_and_photon_number():
    assert purity(vacuum_state(1)) == pytest.approx(1.0, abs=1e-14)
    assert number_mean(vacuum_state(3)) == pytest.approx(0.0, abs=1e-14)


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum_state(0)


def test_pumped_input_zero_particles_is_vacuum():
    state = pumped_input_state(0.0)
    assert np.array_equal(state.d, np.zeros(6))
    assert np.array_equal(state.sigma, np.eye(6))


def test_pumped_input_displacement_layout():
    state = pumped_input_state(4.0, 0.0)
    assert np.allclose(state.d, [4.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_pumped_input_mean_matches_fock_coherent_state():
    # oracle: <a^dag a> of a displaced Fock vacuum at cutoff 40
    psi, leak = fock.prepare_state_fock([fock.Displace(0, 2.0)], 40, n_modes=2)
    oracle_mean, _ = fock.number_moments_fock(psi, 40, 2, modes=(0,))
    assert leak < 1e-6
    state = pumped_input_state(4.0, 0.0)
    assert number_mean(state, modes=(0,)) == pytest.approx(oracle_mean, rel=1e-9)


def test_pumped_input_rejects_negative_number():
    with pytest.raises(ValueError):
        pumped_input_state(-1.0)


def test_apply_identity_leaves_state_unchanged():
    from pumpedsu11 import SymplecticOp
    state = pumped_input_state(3.0, 0.7)
    out = apply_symplectic(state, SymplecticOp(3, np.eye(6)))
    assert np.allclose(out.d, state.d)
    assert np.allclose(out.sigma, state.sigma)


def test_two_mode_squeezed_vacuum_covariance_entries():
    out = apply_symplectic(vacuum_state(3), pumped_two_mode_squeezer(1.0, 0.0))
    side = reduce_to_modes(out, (1, 2))
    # diagonal cosh(2), off-diagonal block sinh(2) times the reflection
    assert side.sigma[0, 0] == pytest.approx(3.7621956910836314, rel=1e-12)
    assert side.sigma[0, 2] == pytest.approx(3.626860407847019, rel=1e-12)
    assert side.sigma[1, 3] == pytest.approx(-3.626860407847019, rel=1e-12)


def test_passive_ops_preserve_vacuum(rng):
    for _ in range(25):
        op = tritter(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        out = apply_symplectic(vacuum_state(3), op)
        assert np.allclose(out.sigma, np.eye(6), atol=1e-12)
        assert np.allclose(out.d, 0.0, atol=1e-15)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_symplectic(vacuum_state(2), tritter(0.3))


def test_reduce_keeps_rows_in_given_order():
    state = apply_symplectic(pumped_input_state(5.0, 0.4), pumped_two_mode_squeezer(0.7, 0.2))
    sub = reduce_to_modes(state, (1, 2))
    assert np.allclose(sub.d, state.d[2:])
    assert np.allclose(sub.sigma, state.sigma[2:, 2:])
    flipped = reduce_to_modes(state, (2, 1))
    assert np.allclose(flipped.sigma[:2, :2], state.sigma[4:, 4:])


def test_number_mean_checks_its_modes():
    # the same checks as reduce_to_modes: a negative index must not wrap
    # around, and a repeated mode must not count twice
    state = pumped_input_state(4.0)
    assert number_mean(state, modes=(0,)) == pytest.approx(4.0, rel=1e-12)
    assert number_mean(state, modes=(2, 1)) == pytest.approx(0.0, abs=1e-14)
    for modes, message in (((-3,), "mode index -3 out of range for 3-mode state"),
                           ((3,), "mode index 3 out of range for 3-mode state"),
                           ((0, 0), r"mode indices must be distinct, got \[0, 0\]")):
        with pytest.raises(ValueError, match=message):
            number_mean(state, modes=modes)


def test_reduce_all_modes_is_identity():
    state = apply_symplectic(vacuum_state(3), tritter(0.5, 0.1))
    sub = reduce_to_modes(state, (0, 1, 2))
    assert np.allclose(sub.sigma, state.sigma)


def test_reduce_product_state_recovers_pump_block():
    state = pumped_input_state(4.0, 0.9)
    pump = reduce_to_modes(state, (0,))
    assert np.allclose(pump.d, state.d[:2])
    assert np.allclose(pump.sigma, np.eye(2))


@pytest.mark.parametrize("bad", [(), (0, 0), (3,)])
def test_reduce_rejects_bad_indices(bad):
    with pytest.raises(ValueError):
        reduce_to_modes(vacuum_state(3), bad)


def test_purity_of_unitary_evolution_stays_one(rng):
    for _ in range(50):
        state = pumped_input_state(rng.uniform(0.0, 50.0), rng.uniform(0, 2 * np.pi))
        op = pumped_two_mode_squeezer(rng.uniform(-2.0, 2.0), rng.uniform(0, 2 * np.pi))
        state = apply_symplectic(state, op)
        state = apply_symplectic(state, tritter(rng.uniform(0, np.pi / 2)))
        assert purity(state) == pytest.approx(1.0, abs=1e-10)


def test_reduced_squeezed_vacuum_purity():
    # single-mode marginal of a two-mode squeezed vacuum is thermal with
    # sigma = cosh(2r) I, so purity = 1/cosh(2r)
    out = apply_symplectic(vacuum_state(2), squeezing_channel(1.0, 0.0))
    assert purity(reduce_to_modes(out, (0,))) == pytest.approx(0.2658022288340797, rel=1e-10)


def test_check_symplectic_accepts_and_rejects():
    assert check_symplectic(np.eye(6))
    assert check_symplectic(tritter(0.7, 1.1), tol=1e-10)
    broken = np.eye(4)
    broken[0, 0] = 2.0
    assert not check_symplectic(broken)
    with pytest.raises(ValueError):
        check_symplectic(np.eye(3))


def test_symplectic_residual_scales_with_the_matrix():
    # the roundoff of S Omega S^T grows as max|S|^2: at r = 8 the forward half
    # (entries near 1.5e3) leaves an absolute residual near 2e-10, but a
    # residual relative to that scale near 1e-16
    from pumpedsu11 import (ChannelSpec, InterferometerConfig, SymplecticOp,
                            embed_on_side_modes, gw_squeezing_channel)
    config = InterferometerConfig(1e12, 8.0, 0.7, ChannelSpec("squeezing"))
    forward = config.forward_half.matrix
    omega = symplectic_form(3)
    assert np.abs(forward @ omega @ forward.T - omega).max() > 1e-10
    assert check_symplectic(forward, tol=1e-14)
    assert np.allclose(config.reverse_half.matrix @ forward, np.eye(6), atol=1e-8)
    # a relative perturbation of 1e-8 is refused at any scale
    for r in (0.5, 8.0):
        bent = pumped_two_mode_squeezer(r, 0.3).matrix.copy()
        bent[2, 2] *= 1.0 + 1e-8
        assert not check_symplectic(bent)
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticOp(3, bent)
    # a channel symplectic only to O(s^4) still cannot enter the pipeline
    with pytest.raises(ValueError, match="refusing to embed"):
        embed_on_side_modes(gw_squeezing_channel(0.05, 0.3, form="second_order"))


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
    assert np.array_equal(omega, -omega.T)


def test_symplectic_form_is_a_shared_read_only_constant():
    omega = symplectic_form(3)
    assert symplectic_form(3) is omega
    with pytest.raises(ValueError):
        omega[0, 1] = 2.0
    assert np.array_equal(omega, np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]]))


def test_symplectic_op_rejects_non_symplectic_matrix():
    from pumpedsu11 import SymplecticOp
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        SymplecticOp(2, bad)
    with pytest.raises(ValueError):
        SymplecticOp(2, np.eye(6))


def test_symplectic_op_rejects_non_finite_matrix():
    from pumpedsu11 import SymplecticOp
    # a NaN residual must fail the check, not slip past a ">= tol" test
    for bad in (np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 1.0, 1.0])):
        with np.errstate(invalid="ignore"):
            assert not check_symplectic(bad)
            with pytest.raises(ValueError, match="not symplectic"):
                SymplecticOp(2, bad)


def test_state_constructor_rejects_asymmetric_covariance():
    sigma = np.eye(4)
    sigma[0, 1] = 1e-6
    with pytest.raises(ValueError):
        GaussianState(2, np.zeros(4), sigma)


def test_state_constructor_rejects_unphysical_covariance():
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), 0.5 * np.eye(2))


def test_state_constructor_rejects_non_finite_moments():
    with pytest.raises(ValueError, match="finite"):
        GaussianState(1, [np.nan, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        GaussianState(1, [0.0, np.inf], np.eye(2))
    for bad in (np.nan, np.inf):
        sigma = np.eye(2)
        sigma[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianState(1, np.zeros(2), sigma)


def test_derived_states_are_read_only():
    state = apply_symplectic(pumped_input_state(2.0), tritter(0.7, 0.3))
    for derived in (state, reduce_to_modes(state, (1, 2))):
        assert not derived.d.flags.writeable
        assert not derived.sigma.flags.writeable


def test_reduce_commutes_with_block_diagonal_symplectics(rng):
    # an operation acting only on the kept side modes commutes with reduction
    from pumpedsu11 import embed_on_side_modes
    for _ in range(10):
        op4 = squeezing_channel(rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi))
        op6 = embed_on_side_modes(op4)
        state = apply_symplectic(pumped_input_state(rng.uniform(0, 5)),
                                 tritter(rng.uniform(0, 1.5), rng.uniform(0, 2 * np.pi)))
        a = reduce_to_modes(apply_symplectic(state, op6), (1, 2))
        b = apply_symplectic(reduce_to_modes(state, (1, 2)), op4)
        assert np.max(np.abs(a.sigma - b.sigma)) < 1e-12
        assert np.max(np.abs(a.d - b.d)) < 1e-12
