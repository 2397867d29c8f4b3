import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import child_env
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
    (3, 10, fock.Displace(2, -1.1 + 0.7j)),
    (3, 11, fock.TwoModeSqueeze((2, 0), 0.5, -0.8)),
    (3, 10, fock.ModeMix((1, 0), 1.2, 2.6)),
    (3, 10, fock.PhaseRotate((0, 2), 0.9)),
], ids=["displace", "two_mode_squeeze", "mode_mix", "phase_rotate", "phase_rotate_one_mode",
        "tritter", "displace_mode_2_of_3", "two_mode_squeeze_2_0", "mode_mix_1_0",
        "phase_rotate_0_2_of_3"])
def test_propagator_matches_dense_exponential(n_modes, cutoff, op):
    # a random state has weight on every eigenvector, up to the truncation edge
    space = fock.FockSpace(n_modes, cutoff)
    K = fock._antihermitian_generator(space, op)
    psi = _random_state(space.dim, cutoff)
    expected = expm(K.toarray()) @ psi
    # the per-operation propagator prepare_state_fock applies
    got = fock._propagate(space, op, psi)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind", [fock.TwoModeSqueeze, fock.ModeMix])
def test_two_mode_operations_reject_a_repeated_mode(kind):
    with pytest.raises(ValueError, match="two distinct modes"):
        kind((1, 1), 0.3)


def _dense_ladders(n_modes, cutoff):
    """Truncated a_m as Kronecker products of dense single-mode factors, mode 0 first."""
    ladder = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    ops = []
    for mode in range(n_modes):
        factors = [np.eye(cutoff)] * n_modes
        factors[mode] = ladder
        op = factors[0]
        for factor in factors[1:]:
            op = np.kron(op, factor)
        ops.append(op)
    return ops


def _dense_generator(a, op):
    """K = c T - conj(c) T^dag of each operation, from products of the dense ladders."""
    ad = [x.T for x in a]
    if isinstance(op, fock.Displace):
        c, T = op.alpha, ad[op.mode]
    elif isinstance(op, fock.TwoModeSqueeze):
        i, j = op.modes
        c, T = op.r * np.exp(1j * op.phase), ad[i] @ ad[j]
    elif isinstance(op, fock.ModeMix):
        i, j = op.modes
        c, T = op.m * np.exp(-1j * op.phase), ad[i] @ a[j]
    elif isinstance(op, fock.Tritter):
        c, T = -1j * op.theta * np.exp(1j * op.phase) / np.sqrt(2.0), ad[0] @ (a[1] + a[2])
    else:
        return -0.5j * op.phi * sum(ad[m] @ a[m] for m in op.modes)
    return c * T - np.conj(c) * T.T


def _dense_channel_generator(a, kind, strength, phase, modes):
    """G = c T + conj(c) T^dag of each channel family, from the dense ladders."""
    ad = [x.T for x in a]
    i, j = modes
    if kind == "phase":
        return 0.5 * strength * (ad[i] @ a[i] + ad[j] @ a[j])
    if kind == "squeezing":
        c, T = 0.25j * strength * np.exp(1j * phase), ad[i] @ ad[j]
    else:
        c, T = 0.25j * strength * np.exp(-1j * phase), ad[i] @ a[j]
    return c * T + np.conj(c) * T.T


@pytest.mark.parametrize("n_modes, cutoff, op", [
    (2, 11, fock.Displace(1, 0.8 - 0.5j)),
    (3, 10, fock.Displace(2, -1.3 + 0.9j)),
    (2, 11, fock.TwoModeSqueeze((1, 0), 0.6, 1.3)),
    (3, 10, fock.TwoModeSqueeze((2, 0), 0.4, -0.7)),
    (2, 11, fock.ModeMix((0, 1), 0.9, 0.4)),
    (3, 10, fock.ModeMix((2, 1), 0.5, 2.1)),
    (3, 10, fock.Tritter(-1.5, 2.2)),
    (2, 11, fock.PhaseRotate((1, 0), 1.7)),
    (3, 10, fock.PhaseRotate((0, 1, 2), -2.3)),
])
def test_generators_match_kronecker_products(n_modes, cutoff, op):
    a = _dense_ladders(n_modes, cutoff)
    K = fock._antihermitian_generator(fock.FockSpace(n_modes, cutoff), op)
    assert np.max(np.abs(K.toarray() - _dense_generator(a, op))) <= 1e-15


@pytest.mark.parametrize("n_modes, cutoff, modes", [(2, 11, (0, 1)), (3, 10, (2, 0))])
@pytest.mark.parametrize("kind", ["squeezing", "mode_mixing", "phase"])
def test_channel_generators_match_kronecker_products(n_modes, cutoff, modes, kind):
    a = _dense_ladders(n_modes, cutoff)
    G = fock.channel_generator(fock.FockSpace(n_modes, cutoff), kind, 1.7, 0.9, modes)
    expected = _dense_channel_generator(a, kind, 1.7, 0.9, modes)
    assert np.max(np.abs(G.toarray() - expected)) <= 1e-15


def test_fock_import_loads_no_scipy_linalg():
    # every benchmark workload imports fock; dense or iterative linalg would add to its memory
    code = ("import sys, pumpedsu11.fock; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_propagator_leaves_state_under_zero_generator():
    for space, op in ((fock.FockSpace(3, 10), fock.Tritter(0.0)),
                      (fock.FockSpace(2, 12), fock.PhaseRotate((0, 1), 0.0))):
        psi = _random_state(space.dim, 3)
        before = psi.copy()
        assert np.array_equal(fock._propagate(space, op, psi), before)
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
        psi = fock._propagate(space, op, psi)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    assert space.leakage(psi) < fock.LEAKAGE_LIMIT


def _dense_hopping(cutoff):
    """S = T + T^T with T = a_0^dag (a_1 + a_2), from the dense ladders."""
    a = _dense_ladders(3, cutoff)
    T = a[0].T @ (a[1] + a[2])
    return T + T.T


@pytest.mark.parametrize("cutoff, op", [(10, fock.Tritter(-1.5, 2.2)),
                                        (11, fock.Tritter(0.5, 0.2))])
def test_tritter_generator_is_a_gauge_of_the_hopping_matrix(cutoff, op):
    # K = -i g D S D^dag with g = theta / sqrt 2 and D = diag(e^{i phase n_0})
    hopping, rho = fock._tritter_hopping(cutoff)
    S = _dense_hopping(cutoff)
    assert np.array_equal(hopping.toarray(), (2.0 / rho) * S)
    d = fock._gauge_phases(op.phase, cutoff)[fock._occupation(cutoff, 3)[0].astype(int)]
    K = fock._antihermitian_generator(fock.FockSpace(3, cutoff), op)
    got = (d[:, None] * (-1j * op.theta / np.sqrt(2.0)) * S) * d.conj()
    assert np.max(np.abs(got - K.toarray())) <= 1e-15 * np.max(np.abs(K.toarray()))


@pytest.mark.parametrize("cutoff", [10, 25, 40])
@pytest.mark.parametrize("theta, phase", [(0.5, 1.1), (-0.37, 4.0), (1.2, 0.0)])
def test_tritter_series_radius_is_the_gershgorin_radius_of_its_generator(cutoff, theta, phase):
    # the radius the series took from K itself: its largest absolute row sum,
    # about a centre of zero, K's diagonal being zero
    K = fock._antihermitian_generator(fock.FockSpace(3, cutoff), fock.Tritter(theta, phase))
    assert not K.diagonal().any()
    radius = np.max(np.asarray(abs(K).sum(axis=1)).ravel())
    _, rho = fock._tritter_hopping(cutoff)
    R = abs(theta / np.sqrt(2.0)) * rho
    assert R == pytest.approx(radius, rel=1e-15)
    assert len(fock._bessel_coefficients(R)) == len(fock._bessel_coefficients(radius))


@pytest.mark.parametrize("cutoff, t", [(10, 0.45), (12, 0.3)])
def test_hopping_series_matches_dense_exponential(cutoff, t):
    S = _dense_hopping(cutoff)
    psi = _random_state(cutoff ** 3, cutoff)
    forward = expm(-1j * t * S)
    # S is real, so exp(i t S) is the conjugate: one dense exponential serves both signs
    for step, U in ((t, forward), (-t, forward.conj())):
        expected = U @ psi
        got = fock.expm_multiply(step, psi, cutoff)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_hopping_series_at_zero_returns_its_input_unchanged():
    psi = _random_state(10 ** 3, 4)
    before = psi.copy()
    got = fock.expm_multiply(0.0, psi, 10)
    assert np.array_equal(got, before) and got is not psi
    assert np.array_equal(psi, before)
    fock.expm_multiply(0.4, psi, 10)
    assert np.array_equal(psi, before)


def test_hopping_cache_is_read_only_and_bounded():
    hopping, _ = fock._tritter_hopping(10)
    assert not hopping.data.flags.writeable and not hopping.offsets.flags.writeable
    assert hopping.data.shape == (4, 10 ** 3)
    # the benchmark's fock_referee workload prepares states at six cutoffs
    assert fock._tritter_hopping.cache_info().maxsize >= 6


def test_tritter_refuses_a_two_mode_space():
    with pytest.raises(ValueError, match="tritter requires a three-mode space"):
        fock.prepare_state_fock([fock.Tritter(0.3)], 12, n_modes=2)


def test_leakage_guard_trips_on_small_cutoff():
    with pytest.raises(fock.LeakageError):
        fock.prepare_state_fock([fock.Displace(0, 4.0)], 12, n_modes=2)


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


@pytest.mark.parametrize("make, field", [
    (lambda: fock.Displace(0, np.nan), "Displace.alpha"),
    (lambda: fock.Displace(1, complex(0.5, np.inf)), "Displace.alpha"),
    (lambda: fock.TwoModeSqueeze((1, 2), np.inf), "TwoModeSqueeze.r"),
    (lambda: fock.TwoModeSqueeze((1, 2), 0.3, np.nan), "TwoModeSqueeze.phase"),
    (lambda: fock.ModeMix((0, 1), np.nan), "ModeMix.m"),
    (lambda: fock.ModeMix((0, 1), 0.3, -np.inf), "ModeMix.phase"),
    (lambda: fock.Tritter(np.nan), "Tritter.theta"),
    (lambda: fock.Tritter(0.3, np.inf), "Tritter.phase"),
    (lambda: fock.PhaseRotate((0, 1), np.nan), "PhaseRotate.phi"),
])
def test_operations_reject_non_finite_parameters(make, field):
    # these once gave a NaN state with leakage nan, or an unrelated error from the series
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got "):
        make()


def test_leakage_guard_trips_on_a_nan_state():
    # a finite amplitude whose block phases overflow leaves a NaN state
    with np.errstate(all="ignore"), pytest.raises(fock.LeakageError, match="leakage nan"):
        fock.prepare_state_fock([fock.Displace(0, 1e308)], 12)


@pytest.mark.parametrize("kind, n_local", [
    (fock.Displace, 1), (fock.TwoModeSqueeze, 2), (fock.ModeMix, 2)])
def test_block_eigensystems_are_read_only_and_cover_the_local_basis(kind, n_local):
    entries = fock._block_eigensystems(kind, 12)
    for index, lam, V in entries:
        for array in (index, lam, V):
            assert not array.flags.writeable
        blocks, n = index.shape
        # one eigensystem per block, or one that all blocks of the size share
        assert len(V) in (1, blocks)
        assert lam.shape == (len(V), n) and V.shape == (len(V), n, n)
    covered = np.sort(np.concatenate([index.ravel() for index, _, _ in entries]))
    assert np.array_equal(covered, np.arange(12 ** n_local))


def test_squeezer_blocks_of_opposite_difference_share_one_eigensystem():
    # the blocks of n_0 - n_1 = d and -d have equal hopping matrices: 79 blocks, 40 V
    entries = fock._block_eigensystems(fock.TwoModeSqueeze, 40)
    assert sum(len(index) for index, _, _ in entries) == 79
    assert sum(len(V) for _, _, V in entries) == 40


def test_block_eigensystem_cache_is_bounded():
    maxsize = fock._block_eigensystems.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < np.inf


def test_cache_hit_prepares_the_state_of_a_miss():
    ops = [fock.TwoModeSqueeze((2, 1), 0.4, 0.7), fock.Displace(0, 0.8 - 0.3j),
           fock.ModeMix((0, 2), 0.5, 1.9), fock.Tritter(0.3, 0.2)]
    fock._block_eigensystems.cache_clear()
    miss, _ = fock.prepare_state_fock(ops, 14, n_modes=3)
    assert fock._block_eigensystems.cache_info().misses == 3
    hit, _ = fock.prepare_state_fock(ops, 14, n_modes=3)
    assert fock._block_eigensystems.cache_info().hits == 3
    assert np.array_equal(hit, miss)


def test_two_mode_propagator_memory_at_cutoff_150():
    # On a miss the cache entry holds V of every block: sum over the block sizes
    # n of n^2 floats, about (2/3) 150^3 * 8 B = 18 MB.  The largest size's S,
    # eigh output and U, the state and its block copies add about 3 MB (21.6 MB
    # measured); 32 MB leaves room for numpy's temporaries.  The padded
    # (blocks, size, size) stacks this replaced peaked at 166 MB.
    import tracemalloc
    psi = fock.FockSpace(2, 150).vacuum()
    fock._block_eigensystems.cache_clear()
    tracemalloc.start()
    try:
        fock._apply_local(psi, fock.TwoModeSqueeze((0, 1), 0.3, 0.2), 150, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fock._block_eigensystems.cache_clear()
    assert peak < 32e6
