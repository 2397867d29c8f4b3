"""Phonon-based gravitational-wave detection in a Bose-Einstein condensate.

Maps the detector's physical parameters (phonon mode frequencies, sound speed,
atomic mass, interaction time) to the dimensionless channel strength driven by
a resonant gravitational wave, and compares the original two-mode-squeezed
probe against the pumped-up interferometer scheme.  This module is the single
unit boundary: everything here is SI, everything upstream is dimensionless.

The scheme formulas broadcast over arrays, with squares written as products
(a numpy scalar squares through ``pow``, an array through a product, and the
two can differ in the last bit), so :func:`compare_grid` evaluates a whole
grid bit-identically to :func:`compare_schemes` row by row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec
from .pipeline import _angle_bound_argument, _side_population, max_tritter_angle

__all__ = [
    "HBAR",
    "GwDetectorParams",
    "SchemeComparison",
    "phonon_xi",
    "coupling_constant",
    "channel_strength",
    "original_scheme_qfi",
    "pumped_scheme_qfi",
    "qcrb_sensitivity",
    "compare_schemes",
    "compare_grid",
]

HBAR = 1.054571817e-34  # J s
PHONON_XI_WARN = 10.0


def phonon_xi(atom_mass: float, sound_speed: float, omega: float,
              hbar: float = HBAR) -> float:
    """Phonon-regime parameter xi = m c_s^2 / (hbar omega).

    Must be large for the mode to sit on the phononic (linear) part of the
    Bogoliubov dispersion; a warning is emitted when xi <= 10.
    """
    if omega <= 0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    if atom_mass <= 0 or sound_speed <= 0 or hbar <= 0:
        raise ValueError("atom mass, sound speed and hbar must be positive")
    xi = atom_mass * sound_speed ** 2 / (hbar * omega)
    if xi <= PHONON_XI_WARN:
        warnings.warn(f"xi = {xi:.3g} <= {PHONON_XI_WARN}: mode is outside the "
                      "phonon regime", stacklevel=2)
    return xi


def coupling_constant(n: int, m: int, xi_n: float, xi_m: float,
                      resonance: str = "sum") -> float:
    """Unitless Bogoliubov coupling c for uniform-trap modes n and m.

    c = xi_n xi_m (n^2 + m^2) / (n - m)^2 on the sum resonance (squeezing) and
    / (n + m)^2 on the difference resonance (mode mixing).
    """
    if n < 1 or m < 1:
        raise ValueError(f"mode indices must be positive, got {n}, {m}")
    if resonance == "sum":
        if n == m:
            raise ValueError("sum resonance with n = m is singular; pick distinct modes")
        denom = (n - m) ** 2
    elif resonance == "difference":
        denom = (n + m) ** 2
    else:
        raise ValueError(f"resonance must be 'sum' or 'difference', got {resonance!r}")
    return xi_n * xi_m * (n ** 2 + m ** 2) / denom


@dataclass(frozen=True)
class GwDetectorParams:
    """BEC and gravitational-wave parameters, SI units throughout.

    The wave frequency must satisfy the chosen resonance condition with the
    two phonon modes: Omega = omega_n + omega_m ("sum", squeezing channel) or
    Omega = omega_n - omega_m ("difference", mode-mixing channel).
    """

    mode_n: int
    mode_m: int
    omega_n: float          # rad/s
    omega_m: float          # rad/s
    sound_speed: float      # m/s
    atom_mass: float        # kg
    interaction_time: float  # s
    gw_frequency: float     # rad/s
    strain: float
    resonance: str = "sum"
    channel_phase: float = 0.0
    hbar: float = HBAR
    resonance_tol: float = 1e-6

    def __post_init__(self):
        if self.resonance not in ("sum", "difference"):
            raise ValueError(f"resonance must be 'sum' or 'difference', got {self.resonance!r}")
        if min(self.omega_n, self.omega_m, self.interaction_time, self.gw_frequency) <= 0:
            raise ValueError("frequencies and interaction time must be positive")
        target = (self.omega_n + self.omega_m if self.resonance == "sum"
                  else self.omega_n - self.omega_m)
        if target <= 0:
            raise ValueError("difference resonance needs omega_n > omega_m")
        miss = abs(self.gw_frequency - target) / self.gw_frequency
        if miss >= self.resonance_tol:
            raise ValueError(
                f"off resonance: |Omega - {target:.6g}| / Omega = {miss:.3g} "
                f"exceeds {self.resonance_tol:.1e}; the channel formulas are resonance-only")


def channel_strength(params: GwDetectorParams) -> ChannelSpec:
    """Channel spec driven by the wave: strength sqrt(omega_m omega_n) c t.

    The strain enters only through the channel argument
    s = strain * strength / 4; the strength constant itself excludes it.
    """
    xi_n = phonon_xi(params.atom_mass, params.sound_speed, params.omega_n, params.hbar)
    xi_m = phonon_xi(params.atom_mass, params.sound_speed, params.omega_m, params.hbar)
    c = coupling_constant(params.mode_n, params.mode_m, xi_n, xi_m, params.resonance)
    strength = np.sqrt(params.omega_m * params.omega_n) * c * params.interaction_time
    kind = "squeezing" if params.resonance == "sum" else "mode_mixing"
    return ChannelSpec(kind=kind, strength=strength, phase=params.channel_phase,
                       epsilon=params.strain)


def original_scheme_qfi(r, squeeze_phase=np.pi / 2, channel_phase=0.0, strength=1.0):
    """QFI of the original probe: a two-mode squeezed phonon state, no tritter.

    H = (B^2/4) [1 + sin^2(squeeze_phase - channel_phase) sinh^2(2r)];
    defaults give the optimal phase relation.  Broadcasts over arrays.
    """
    s = np.sin(squeeze_phase - channel_phase)
    sh = np.sinh(2.0 * r)
    return 0.25 * (strength * strength) * (1.0 + (s * s) * (sh * sh))


def pumped_scheme_qfi(n0, r, theta, strength=1.0):
    """QFI of the pumped-up scheme at optimal phases in the undepleted regime.

    Small-angle expansion around the original scheme: the theta = 0 baseline
    plus the condensate-boosted gain (B^2/2) theta^2 n0 n.  Reduces exactly to
    :func:`original_scheme_qfi` at theta = 0.  Broadcasts over arrays; raises
    if any pump population is not positive.
    """
    if np.any(n0 <= 0):
        raise ValueError(f"pump population must be positive, got {n0}")
    return original_scheme_qfi(r, strength=strength) \
        + 0.5 * (strength * strength) * (theta * theta) * n0 * _side_population(r)


def qcrb_sensitivity(qfi: float, detectors: float, integration_time: float,
                     interaction_time: float) -> float:
    """Minimum detectable strain 1/sqrt(M H) with M = detectors * tau / t."""
    if min(qfi, detectors, integration_time, interaction_time) <= 0:
        raise ValueError("qfi, detector count and times must all be positive")
    repetitions = detectors * integration_time / interaction_time
    return 1.0 / np.sqrt(repetitions * qfi)


@dataclass(frozen=True)
class SchemeComparison:
    """Original vs pumped-up QFI at matched channel strength."""

    qfi_original: float
    qfi_pumped: float
    ratio: float
    r_original: float
    r_pumped: float
    theta: float
    theta_max: float
    n0: float
    n_side_pumped: float


def compare_schemes(n0: float, r_original: float, r_pumped: float | None = None,
                    strength: float = 1.0, delta: float = 0.1,
                    theta_sq: float | None = None) -> SchemeComparison:
    """Compare the original squeezed-probe detector with the pumped-up scheme.

    Args:
        n0: condensate (pump) particle number for the pumped scheme.
        r_original: phonon squeezing of the original scheme.
        r_pumped: phonon squeezing of the pumped scheme (defaults to r_original).
        strength: channel strength constant B; ratios are independent of it.
        delta: largest tolerated side/pump population ratio after the tritter.
        theta_sq: squared tritter angle, nonnegative; defaults to the
            undepleted-pump bound, and may not exceed it.
    """
    if theta_sq is not None and not theta_sq >= 0.0:
        raise ValueError(f"theta^2 must be nonnegative, got {theta_sq:.4g}")
    if r_pumped is None:
        r_pumped = r_original
    n_side = _side_population(r_pumped)
    gamma = n_side / n0
    theta_max = max_tritter_angle(gamma, delta)
    bound = theta_max * theta_max
    if theta_sq is None:
        theta_sq = bound
    elif theta_sq > bound * 1.02:
        # 2% headroom on theta^2 accepts bounds quoted at two significant digits
        raise ValueError(f"theta^2 = {theta_sq:.4g} exceeds the undepleted-pump bound "
                         f"{bound:.4g}")
    theta = np.sqrt(theta_sq)
    h_orig = original_scheme_qfi(r_original, strength=strength)
    h_pump = pumped_scheme_qfi(n0, r_pumped, theta, strength=strength)
    return SchemeComparison(h_orig, h_pump, h_pump / h_orig, r_original, r_pumped,
                            theta, theta_max, n0, n_side)


def compare_grid(n0, r_original, r_pumped=None, strength=1.0, delta=0.1, theta_sq=None):
    """:func:`compare_schemes` over arrays that broadcast to one grid shape.

    Every check of the scalar function is one mask over the grid: n0 > 0,
    0 <= gamma <= delta, delta < 1, an arccos argument in [-1, 1], a
    nonnegative theta_sq within 2% of the bound, and a finite value in every
    column (a NaN always fails).  The rows that pass go through the same
    formulas as the scalar function, so they are bit-identical to it.  A
    flagged row is evaluated again by :func:`compare_schemes`, which raises its
    own error or returns its value, so each row carries exactly its scalar
    outcome and never affects another row.

    Returns ``(columns, errors)``: ``columns`` maps qfi_original, qfi_pumped,
    ratio, theta and theta_max to an array that broadcasts to the grid shape
    (unflagged qfi_original keeps the shape of its own arguments) and holds
    NaN on failed rows; ``errors`` maps the flat index of each failed row to
    its exception, stored without its traceback.
    """
    args = (n0, r_original, r_pumped, strength, delta, theta_sq)
    shape = np.broadcast_shapes(*map(np.shape, args))

    def full(value):
        return np.broadcast_to(np.asarray(value, dtype=float), shape)

    n0_, r_p, b, delta_ = map(full, (n0, r_original if r_pumped is None else r_pumped,
                                     strength, delta))
    with np.errstate(all="ignore"):  # flagged rows are redone one at a time
        gamma = _side_population(r_p) / n0_
        z = _angle_bound_argument(gamma, delta_)
        ok = (n0_ > 0.0) & (0.0 <= gamma) & (gamma <= delta_) & (delta_ < 1.0) \
            & (-1.0 <= z) & (z <= 1.0)
        theta_max = np.full(shape, np.nan)
        theta_max[ok] = max_tritter_angle(gamma[ok], delta_[ok])
        bound = theta_max * theta_max
        if theta_sq is None:
            theta_sq_ = bound
        else:
            theta_sq_ = full(theta_sq)
            ok &= (theta_sq_ >= 0.0) & ~(theta_sq_ > bound * 1.02)
        theta = np.sqrt(theta_sq_)
        h_orig = original_scheme_qfi(r_original, strength=strength)
        h_pump = np.full(shape, np.nan)
        h_pump[ok] = pumped_scheme_qfi(n0_[ok], r_p[ok], theta[ok], b[ok])
        # a 0-d result comes back as a numpy scalar
        columns = {name: np.asarray(values) for name, values in (
            ("qfi_original", h_orig), ("qfi_pumped", h_pump), ("ratio", h_pump / h_orig),
            ("theta", theta), ("theta_max", theta_max))}
        for values in columns.values():
            ok &= np.isfinite(values)
    errors = {}
    redo = np.flatnonzero(~ok).tolist()
    if redo:
        columns = {name: np.broadcast_to(values, shape).copy()
                   for name, values in columns.items()}
        args = [None if a is None else full(a) for a in args]
        for i in redo:
            try:
                # the row's error reports the failure; numpy's warning would only repeat it
                with np.errstate(all="ignore"):
                    cmp = compare_schemes(*(None if a is None else float(a.flat[i])
                                            for a in args))
            except Exception as exc:
                # a stored traceback would lead back to this frame and its errors
                errors[i] = exc.with_traceback(None)
                cmp = None
            for name, values in columns.items():
                values.flat[i] = np.nan if cmp is None else getattr(cmp, name)
    return columns, errors
