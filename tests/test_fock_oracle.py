import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from pumpedsu11 import fock


def test_vacuum_preparation():
    psi, leak = fock.prepare_state_fock([], 12, n_modes=2)
    assert psi[0] == pytest.approx(1.0)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert leak < 1e-12


def test_coherent_state_mean():
    psi, leak = fock.prepare_state_fock([fock.Displace(0, np.sqrt(2.0))], 30, n_modes=2)
    mean, var = fock.number_moments_fock(psi, 30, 2, modes=(0,))
    assert leak < 1e-6
    assert mean == pytest.approx(2.0, abs=1e-6)
    assert var == pytest.approx(2.0, abs=1e-6)  # Poisson


def test_two_mode_squeezed_vacuum_photon_number():
    psi, leak = fock.prepare_state_fock([fock.TwoModeSqueeze((0, 1), 0.5, 0.3)], 30)
    mean, _ = fock.number_moments_fock(psi, 30, 2)
    assert leak < 1e-6
    assert mean == pytest.approx(2.0 * np.sinh(0.5) ** 2, abs=1e-5)


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("n_modes, cutoff, op", [
    (2, 10, fock.Displace(1, 0.8 - 0.5j)),
    (2, 12, fock.TwoModeSqueeze((0, 1), 0.6, 1.3)),
    (2, 11, fock.ModeMix((0, 1), 0.9, 0.4)),
    (2, 12, fock.PhaseRotate((0, 1), 1.7)),       # diagonal: shifted interval, c != 0
    (2, 10, fock.PhaseRotate((1,), -2.3)),
    (3, 10, fock.Tritter(0.5, 0.2)),
], ids=["displace", "two_mode_squeeze", "mode_mix", "phase_rotate", "phase_rotate_one_mode",
        "tritter"])
def test_propagator_matches_dense_exponential(n_modes, cutoff, op):
    # a random state has weight on every eigenvector, up to the truncation edge
    space = fock.FockSpace(n_modes, cutoff)
    K = fock._antihermitian_generator(space, op)
    psi = _random_state(space.dim, cutoff)
    expected = expm(K.toarray()) @ psi
    got = fock.expm_multiply(K, psi)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_propagator_leaves_state_under_zero_generator():
    psi = _random_state(144, 3)
    before = psi.copy()
    for K in (sparse.csr_matrix((144, 144), dtype=complex),
              fock._antihermitian_generator(fock.FockSpace(2, 12), fock.PhaseRotate((0, 1), 0.0))):
        assert np.array_equal(fock.expm_multiply(K, psi), before)
    assert np.array_equal(psi, before)


def test_propagator_preserves_norm_at_largest_cutoff():
    # criterion 7's worst corner (r = 0.6, |alpha|^2 = 2, theta = 0.5) at the
    # dimension guard, where the tritter's Gershgorin radius is largest
    space = fock.FockSpace(3, 40)
    ops = [fock.TwoModeSqueeze((1, 2), 0.6, 0.3), fock.Displace(0, np.sqrt(2.0) * 1j),
           fock.Tritter(0.5, 1.1), fock.TwoModeSqueeze((1, 2), 0.075, 2.0),
           fock.Tritter(-0.5, 1.1), fock.TwoModeSqueeze((1, 2), -0.6, 0.3)]
    psi = space.vacuum()
    for op in ops:
        psi = fock.expm_multiply(fock._antihermitian_generator(space, op), psi)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    assert space.leakage(psi) < fock.LEAKAGE_LIMIT


def test_leakage_guard_trips_on_small_cutoff():
    with pytest.raises(fock.LeakageError):
        fock.prepare_state_fock([fock.Displace(0, 4.0)], 12, n_modes=2)


def test_adaptive_cutoff_grows_until_converged():
    # |alpha|^2 = 16 leaks badly at cutoff 10; the adaptive path must walk up
    psi, leak, cutoff = fock.prepare_state_adaptive([fock.Displace(0, 4.0)], n_modes=2)
    assert cutoff > 10
    assert leak < 1e-6
    mean, _ = fock.number_moments_fock(psi, cutoff, 2, modes=(0,))
    assert mean == pytest.approx(16.0, rel=1e-6)


def test_adaptive_cutoff_respects_dimension_guard():
    # a displacement this large cannot converge within the 3-mode guard
    with pytest.raises(fock.LeakageError):
        fock.prepare_state_adaptive([fock.Displace(0, 10.0)], n_modes=3)


def test_space_guards():
    with pytest.raises(ValueError):
        fock.FockSpace(2, 5)        # cutoff below the floor
    with pytest.raises(ValueError):
        fock.FockSpace(3, 41)       # 41^3 exceeds the dimension guard
    with pytest.raises(ValueError):
        fock.FockSpace(4, 12)


def test_unitaries_preserve_norm():
    ops = [fock.TwoModeSqueeze((0, 1), 0.4, 1.0), fock.Displace(1, 0.7 - 0.2j),
           fock.ModeMix((0, 1), 0.9, 0.5), fock.PhaseRotate((0, 1), 1.7)]
    psi, leak = fock.prepare_state_fock(ops, 25)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9
    assert leak < 1e-6


def test_generator_variance_vacuum_squeezing():
    space = fock.FockSpace(2, 20)
    gen = fock.channel_generator(space, "squeezing", 1.0, 0.4, (0, 1))
    psi = space.vacuum()
    assert fock.generator_variance(psi, gen) == pytest.approx(0.25, rel=1e-12)


def test_generator_variance_on_squeezed_probe():
    # squeezed probe with optimal phase: 4 Var(G) = (1 + sinh^2(2r))/4 at r = 0.5
    psi, _ = fock.prepare_state_fock([fock.TwoModeSqueeze((0, 1), 0.5, np.pi / 2)], 30)
    space = fock.FockSpace(2, 30)
    gen = fock.channel_generator(space, "squeezing", 1.0, 0.0, (0, 1))
    assert fock.generator_variance(psi, gen) == pytest.approx(0.5952744613854539, rel=1e-9)


def test_phase_generator_counts_particles():
    space = fock.FockSpace(2, 15)
    gen = fock.channel_generator(space, "phase", 2.0, 0.0, (0, 1))
    psi = space.vacuum()
    assert fock.generator_variance(psi, gen) == pytest.approx(0.0, abs=1e-12)


def test_number_moments_subsets():
    psi, _ = fock.prepare_state_fock([fock.Displace(0, 1.0), fock.Displace(1, 1.0)], 20)
    total = fock.number_moments_fock(psi, 20, 2)
    each = [fock.number_moments_fock(psi, 20, 2, modes=(m,))[0] for m in (0, 1)]
    assert total[0] == pytest.approx(sum(each), rel=1e-10)
    diff_mean, diff_var = fock.number_diff_moments_fock(psi, 20, 2, (0, 1))
    assert diff_mean == pytest.approx(0.0, abs=1e-10)
    assert diff_var == pytest.approx(2.0, rel=1e-6)  # two independent Poissonians


def test_pipeline_state_matches_gaussian_population():
    from pumpedsu11 import (ChannelSpec, InterferometerConfig, number_mean,
                            pre_measurement_state)
    nbar, r, theta = 3.0, 0.4, 0.5
    psi, leak = fock.pipeline_state_fock(nbar, 0.1, r, 0.7, theta, 0.9, 25)
    assert leak < 1e-6
    fock_mean, _ = fock.number_moments_fock(psi, 25, 3)
    cfg = InterferometerConfig(nbar=nbar, r=r, theta=theta,
                               channel=ChannelSpec("squeezing", 1.0),
                               pump_phase=0.1, squeeze_phase=0.7, tritter_phase=0.9)
    gauss_mean = number_mean(pre_measurement_state(cfg, 0.0))
    assert fock_mean == pytest.approx(gauss_mean, rel=1e-6)
    assert fock_mean == pytest.approx(nbar, rel=1e-6)  # tritter conserves the total
