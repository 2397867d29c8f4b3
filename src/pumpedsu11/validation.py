"""Desk-scale cross-checks of the Gaussian formalism against the Fock oracle."""

from __future__ import annotations

import numpy as np

from . import fock
from .channels import ChannelSpec, squeezing_channel
from .metrology import heterodyne_moments, number_sum_moments, qfi_numeric
from .pipeline import InterferometerConfig, run_interferometer
from .states import GaussianState, apply_symplectic, reduce_to_modes, vacuum_state

__all__ = ["oracle_checks"]


def _gauss_tmsv(r: float, phase: float = 0.0) -> GaussianState:
    return apply_symplectic(vacuum_state(2), squeezing_channel(r, phase))


def oracle_checks(cutoff: int = 25) -> list:
    """Run the oracle suite; returns (name, passed, detail) triples.

    Each check pits a Gaussian-formalism quantity against an independent
    truncated-Fock computation at small occupation.  The three-mode checks run
    at ``cutoff``, which :class:`fock.FockSpace` bounds to 10..40; the
    two-mode checks always run at cutoff 30.
    """
    checks = []

    def record(name, reference, value, rtol):
        err = abs(value - reference) / max(abs(reference), 1e-12)
        checks.append((name, err < rtol, f"gaussian={reference:.9g} fock={value:.9g} "
                                         f"rel={err:.2e} (tol {rtol:.0e})"))

    # coherent pump: mean photon number
    psi, _ = fock.prepare_state_fock([fock.Displace(0, np.sqrt(2.0))], 30, n_modes=2)
    mean, var = fock.number_moments_fock(psi, 30, 2, modes=(0,))
    record("coherent mean <n> = |alpha|^2", 2.0, mean, 1e-6)
    record("coherent var (Poisson)", 2.0, var, 1e-6)

    # two-mode squeezed vacuum: number-sum moments vs Eqs. in the Gaussian form
    state = _gauss_tmsv(0.5, 0.3)
    g_mean, g_var = number_sum_moments(state)
    psi, _ = fock.prepare_state_fock([fock.TwoModeSqueeze((0, 1), 0.5, 0.3)], 30, n_modes=2)
    f_mean, f_var = fock.number_moments_fock(psi, 30, 2)
    record("squeezed vacuum number-sum mean", g_mean, f_mean, 1e-6)
    record("squeezed vacuum number-sum variance", g_var, f_var, 1e-6)

    # heterodyne (number-difference) moments on a displaced squeezed state
    ops = [fock.TwoModeSqueeze((0, 1), 0.4, 0.0), fock.Displace(0, 1.0 + 0.5j)]
    psi, _ = fock.prepare_state_fock(ops, 30, n_modes=2)
    f_mean, f_var = fock.number_diff_moments_fock(psi, 30, 2, (0, 1))
    st = apply_symplectic(vacuum_state(2), squeezing_channel(0.4, 0.0))
    d = np.array(st.d)
    d[0] += 2.0
    d[1] += 1.0
    st = GaussianState(2, d, st.sigma)
    g_mean, g_var = heterodyne_moments(st)
    record("heterodyne mean", g_mean, f_mean, 1e-6)
    record("heterodyne variance", g_var, f_var, 1e-6)

    # QFI of the pipeline family vs 4 Var(G) in Fock space; one state for both channels
    psi, _ = fock.pipeline_state_fock(2.0, 0.2, 0.4, 1.1, 0.45, 0.8, cutoff)
    space = fock.FockSpace(3, cutoff)
    for kind in ("squeezing", "mode_mixing"):
        config = InterferometerConfig(
            nbar=2.0, r=0.4, theta=0.45, pump_phase=0.2, squeeze_phase=1.1,
            tritter_phase=0.8, channel=ChannelSpec(kind=kind, strength=1.0, phase=0.6))
        h_gauss = qfi_numeric(config)
        gen = fock.channel_generator(space, kind, 1.0, 0.6, (1, 2))
        record(f"QFI vs 4 Var(G), {kind} channel", h_gauss,
               fock.generator_variance(psi, gen), 1e-3)

    # output-state number moments vs the oracle, full pipeline at finite strain
    config = InterferometerConfig(
        nbar=2.0, r=0.3, theta=0.4, channel=ChannelSpec("squeezing", 1.0, 0.9, 0.2))
    g_mean, g_var = number_sum_moments(reduce_to_modes(run_interferometer(config), (1, 2)))
    alpha0 = np.sqrt(2.0 - 2.0 * np.sinh(0.3) ** 2)
    ops = [
        fock.TwoModeSqueeze((1, 2), 0.3, 0.0),
        fock.Displace(0, alpha0),
        fock.Tritter(0.4, 0.0),
        fock.TwoModeSqueeze((1, 2), 0.2 / 4.0, 0.9),
        fock.Tritter(-0.4, 0.0),
        fock.TwoModeSqueeze((1, 2), -0.3, 0.0),
    ]
    psi, _ = fock.prepare_state_fock(ops, cutoff, n_modes=3)
    f_mean, f_var = fock.number_moments_fock(psi, cutoff, 3, modes=(1, 2))
    record("pipeline output number-sum mean", g_mean, f_mean, 1e-3)
    record("pipeline output number-sum variance", g_var, f_var, 1e-3)

    return checks
