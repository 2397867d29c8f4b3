"""Phonon-based gravitational-wave detection in a Bose-Einstein condensate.

Maps the detector's physical parameters (phonon mode frequencies, sound speed,
atomic mass, interaction time) to the dimensionless channel strength driven by
a resonant gravitational wave, and compares the original two-mode-squeezed
probe against the pumped-up interferometer scheme.  This module is the single
unit boundary: everything here is SI, everything upstream is dimensionless.

The scheme formulas broadcast over arrays, with squares written as products
(a numpy scalar squares through ``pow``, an array through a product, and the
two can differ in the last bit), so :func:`compare_grid` evaluates a whole
grid in one pass, and a row's values and error are those of the one-point
grid of its own parameters, :func:`compare_schemes`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec
from .pipeline import (_angle_bound_argument, _item, _row_errors, _scalar_check,
                       _side_population, max_tritter_angle)

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
    defaults give the optimal phase relation.  The conventional SU(1,1): the
    squeezing "theta_zero" regime of ``metrology``.  Broadcasts over arrays.
    """
    s = np.sin(squeeze_phase - channel_phase)
    sh = np.sinh(2.0 * r)
    return 0.25 * (strength * strength) * (1.0 + (s * s) * (sh * sh))


def _pumped_gain(n0, n_side, theta, strength):  # (B^2/2) theta^2 n0 n
    return 0.5 * (strength * strength) * (theta * theta) * n0 * n_side


def pumped_scheme_qfi(n0, r, theta, strength=1.0):
    """QFI of the pumped-up scheme at optimal phases in the undepleted regime.

    Small-angle expansion around the original scheme: the theta = 0 baseline
    plus the condensate-boosted gain (B^2/2) theta^2 n0 n, the "pumped_limit"
    regime of ``metrology``.  Reduces exactly to :func:`original_scheme_qfi` at
    theta = 0.  Broadcasts over arrays; raises if any pump population is not
    positive.
    """
    if np.any(n0 <= 0):
        raise ValueError(f"pump population must be positive, got {n0}")
    return original_scheme_qfi(r, strength=strength) \
        + _pumped_gain(n0, _side_population(r), theta, strength)


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

    A one-point :func:`compare_grid`, which raises the point's error.

    Args:
        n0: condensate (pump) particle number for the pumped scheme.
        r_original: phonon squeezing of the original scheme.
        r_pumped: phonon squeezing of the pumped scheme (defaults to r_original).
        strength: channel strength constant B; ratios are independent of it.
        delta: largest tolerated side/pump population ratio after the tritter.
        theta_sq: squared tritter angle, nonnegative; defaults to the
            undepleted-pump bound, and may not exceed it.
    """
    columns, errors = compare_grid(n0, r_original, r_pumped, strength, delta, theta_sq)
    if errors:
        raise errors[0]
    r_pumped = r_original if r_pumped is None else r_pumped
    return SchemeComparison(**{name: values[()] for name, values in columns.items()},
                            r_original=r_original, r_pumped=r_pumped, n0=n0,
                            n_side_pumped=_side_population(r_pumped))


def _check_theta_sq(theta_sq):
    if not theta_sq >= 0.0:
        raise ValueError(f"theta^2 must be nonnegative, got {theta_sq:.4g}")


def compare_grid(n0, r_original, r_pumped=None, strength=1.0, delta=0.1, theta_sq=None):
    """The scheme comparison over arrays that broadcast to one grid shape.

    The checks run as masks over the grid, in one pass and in this order: a
    nonnegative theta_sq; those of :func:`max_tritter_angle` on gamma =
    n_side / n0 and delta (0 <= gamma <= delta, delta < 1, an arccos argument
    in [-1, 1]); theta_sq within 2% of the bound theta_max^2; n0 > 0; and
    last, finite qfi_original, qfi_pumped and ratio, each evaluated once over
    the grid (an overflowing sinh gives inf, strength 0 an undefined ratio,
    and n0 <= 0 NaN).  A failing row carries the error of its first failing
    check (:func:`pipeline._row_errors`).  A row depends only on its own
    parameters, so it is bit-identical to :func:`compare_schemes` on them.

    Returns ``(columns, errors)``: ``columns`` maps qfi_original, qfi_pumped,
    ratio, theta and theta_max to an array that broadcasts to the grid shape
    (without failed rows, each keeps the shape of its own arguments) and holds
    NaN on failed rows; ``errors`` maps the flat index of each failed row to
    its exception, stored without its traceback.  With theta_sq defaulted,
    theta is the theta_max array itself, the same bits as the root of the
    bound: sqrt(fl(x*x)) == x in binary64 unless x*x underflows, and theta_max
    is 0 or at least 7.4e-9 (half the arccos of the float next below 1).
    """
    if r_pumped is None:
        r_pumped = r_original
    n0, r_original, r_pumped, strength, delta = (
        np.asarray(a, dtype=float) for a in (n0, r_original, r_pumped, strength, delta))
    shape = np.broadcast_shapes(*map(np.shape, (n0, r_original, r_pumped, strength, delta,
                                                theta_sq)))

    def full(value):
        return np.broadcast_to(value, shape)

    with np.errstate(all="ignore"):  # a failed row reports its own error
        gamma = _side_population(r_pumped) / n0
        z = _angle_bound_argument(gamma, delta)
        outside = ~((0.0 <= gamma) & (gamma <= delta)) | (delta >= 1.0) \
            | ~((-1.0 <= z) & (z <= 1.0))
        angle = _scalar_check(outside, max_tritter_angle, gamma, delta)
        theta_max = 0.5 * np.arccos(z)  # as max_tritter_angle
        checks = [angle]
        theta = theta_max  # the root of the default theta_sq = theta_max^2
        if theta_sq is not None:
            theta_sq = np.asarray(theta_sq, dtype=float)
            given, bound = full(theta_sq), theta_max * theta_max
            # 2% headroom on theta^2 accepts bounds quoted at two significant digits
            checks = [_scalar_check(~(theta_sq >= 0.0), _check_theta_sq, theta_sq), angle, (
                given > bound * 1.02, lambda j: ValueError(
                    f"theta^2 = {_item(given, j):.4g} exceeds the undepleted-pump bound "
                    f"{_item(full(bound), j):.4g}"))]
            theta = np.sqrt(theta_sq)
        h_orig = original_scheme_qfi(r_original, strength=strength)
        # a row with n0 <= 0 takes NaN here and fails its own check below
        h_pump = pumped_scheme_qfi(np.where(n0 > 0.0, n0, np.nan), r_pumped, theta, strength)
        ratio = h_pump / h_orig
        nonfinite = ~(np.isfinite(h_orig) & np.isfinite(h_pump) & np.isfinite(ratio))
        columns = {"qfi_original": h_orig, "qfi_pumped": h_pump, "ratio": ratio,
                   "theta": theta, "theta_max": theta_max}
        results = {name: np.broadcast_to(columns[name], nonfinite.shape)
                   for name in ("qfi_original", "qfi_pumped", "ratio")}
        checks += [_scalar_check(n0 <= 0.0, pumped_scheme_qfi, n0, r_pumped, theta, strength), (
            nonfinite, lambda j: ValueError("non-finite " + ", ".join(
                name for name, values in results.items() if not np.isfinite(_item(values, j)))))]
        errors = _row_errors(checks, shape)
    if errors:  # one copy per distinct array, so theta stays theta_max
        copies = {id(values): full(values).copy() for values in columns.values()}
        columns = {name: copies[id(values)] for name, values in columns.items()}
        for values in copies.values():
            values.flat[list(errors)] = np.nan
    # a 0-d result comes back as a numpy scalar
    return {name: np.asarray(values) for name, values in columns.items()}, errors
