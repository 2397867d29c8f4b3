"""Quantum and classical Fisher information for the probed Gaussian channel.

``qfi_numeric`` evaluates the pure-state Gaussian quantum Fisher information
(Safranek, Lee & Fuentes, New J. Phys. 17, 073016 (2015))

    H = (1/4) Tr[(sigma^-1 sigma')^2] + d'^T sigma^-1 d'

of the pre-measurement family (state after source, tritter and channel),
with the exact strain derivatives of the channel generator K
(:meth:`ChannelSpec.generator`).  It is evaluated in one frame, the input
state's: the coherent pump d with sigma = I, on which the generator acts as
A = S^-1 K S for the forward half S, so that H = (1/4)|A + A^T|_F^2 + |A d|^2
and no squeezed covariance is inverted.

Every closed form has one home, the table ``_REGIMES``: for each channel
kind and quantity ("QFI" or "F0") it maps a regime name (exact, or a named
asymptotic regime) to the regime's checks, in the order they apply, and its
formula over a ``_Point``; F0's "exact" regime is the small-strain ratio of
the number-sum response coefficients (``_response``).  ``qfi_closed_form``
and ``f0_closed_form`` go through one dispatcher, which refuses a kind
without an entry by name; ``SQUEEZING_REGIMES`` and ``MODE_MIXING_REGIMES``
are the table's keys.  The squeezing "theta_zero" form (the conventional
SU(1,1)) and the pumped-up gain (B^2/2) theta^2 n0 n are :mod:`gw`'s scheme
formulas, one copy for both.  Regimes are never auto-detected.

``_evaluate_grid`` is the one implementation of H_numeric, F0 and the
side-mode moments.  It takes a grid's parameters as a ``_Point`` of scalars
and arrays that broadcast over the grid, fills the source squeezer, tritter,
channel step and generator each at the shape of its own parameters (a (6, 6)
matrix for a scalar, a stack for an axis), and computes each quantity in the
input frame with formulas that broadcast over the leading axes: the output
map is I + E with E = S^-1 (C - I) S, so the number-sum moments and their
strain slopes are read off E and A without the identity ever cancelling.
It lists every check in the order the quantity needs it, each with the
words of a failing point's error, and hands them to the grids' one failure
protocol, ``pipeline._row_errors``.  Sweeps call it on their grids, and the
single-point functions (``qfi_numeric``, ``sensitivity_number_sum``,
``fisher_from_moments``) on a one-point grid, raising the point's error.
Its H_closed and theta_t take the table's exact QFI and the turning point
over arrays of parameters; a grid point where they fail takes its error
from their scalar functions.
"""

from __future__ import annotations

import math
import operator
from typing import Any, NamedTuple

import numpy as np

from .channels import (_channel_argument, _generator, _side_channel, _side_step,
                       _tritter_matrix, _with_pump)
from .gw import _pumped_gain, original_scheme_qfi
from .pipeline import (InterferometerConfig, _flat, _item, _row_errors, _scalar_check,
                       max_tritter_angle, pump_depletion)
from .states import GaussianState, _pump_displacement, _symplectic_inverse

__all__ = [
    "RegimeError",
    "SQUEEZING_REGIMES",
    "MODE_MIXING_REGIMES",
    "qfi_numeric",
    "qfi_closed_form",
    "optimal_tritter_angle",
    "optimal_phases",
    "number_sum_moments",
    "heterodyne_moments",
    "number_sum_quadratic_response",
    "sensitivity_number_sum",
    "f0_closed_form",
    "fisher_from_moments",
]

LARGE_NBAR_FLOOR = 1e4
UNDEPLETED_DELTA = 0.1


class RegimeError(ValueError):
    """An asymptotic formula was requested outside its regime of validity."""


# ----------------------------------------------------------------------------
# numeric QFI
# ----------------------------------------------------------------------------

def qfi_numeric(config: InterferometerConfig) -> float:
    """Quantum Fisher information of the strain, from the exact state tangent.

    The QFI of this family does not depend on the strain (the channel
    generator is fixed), so it is evaluated at zero strain, in the input
    frame (see :func:`_evaluate_stack`).
    """
    return _at_config(config, 0.0, "H_numeric")[0]


# The formulas below broadcast over leading axes: a one-point grid passes one
# state, a larger grid a stack of them.

def _t(mat):
    return mat.swapaxes(-1, -2)


def _matvec(mat, vec):
    return (mat @ vec[..., None])[..., 0]


def _quad(u, mat, v):
    # u^T mat v
    return (u[..., None, :] @ mat @ v[..., :, None])[..., 0, 0]


def _dot(u, v):
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _trace(mat):
    return mat.trace(axis1=-2, axis2=-1)


def _inner(a, b):
    # Tr(a^T b): Tr(a b) when a is symmetric, |a|_F^2 when b is a
    return (a * b).sum(axis=(-2, -1))


# ----------------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------------

class _Point(NamedTuple):
    """One configuration's parameters, as scalars or as arrays with one entry per row."""

    nbar: Any
    r: Any
    theta: Any
    pump_phase: Any
    squeeze_phase: Any
    tritter_phase: Any
    strength: Any
    channel_phase: Any
    n0: Any
    n_side: Any


_FIELDS = operator.attrgetter("nbar", "r", "theta", "pump_phase", "squeeze_phase",
                              "tritter_phase", "channel.strength", "channel.phase")


def _point(config: InterferometerConfig) -> _Point:
    return _Point(*_FIELDS(config), *pump_depletion(config.nbar, config.r))


# The closed forms below broadcast over a _Point of arrays of one channel kind,
# so the single-point functions and the grids share them.  Every square is a
# product: a numpy scalar squares through ``pow`` and an array through a
# product, and the two can differ in the last bit.

def _sq(x):
    return x * x


def _phase_terms(kind: str, p: _Point):
    """(eta1, eta2) of the squeezing channel, (eta3, Phi1) of the mode-mixing channel.

    eta1 = cosh 2r + sinh 2r cos x and eta3 = sinh 2r cos y - cosh 2r are
    written as 2 cosh 2r cos^2(x/2) - e^-2r cos x and -(2 cosh 2r sin^2(y/2)
    + e^-2r cos y): terms of one sign, so a phase near the dark direction keeps
    its digits instead of cancelling two terms of size e^2r.
    """
    ch2r, small = np.cosh(2 * p.r), np.exp(-2 * p.r)
    if kind == "squeezing":
        x = 2 * p.tritter_phase - 2 * p.pump_phase - p.squeeze_phase + 2 * p.channel_phase
        return (2.0 * ch2r * _sq(np.cos(0.5 * x)) - small * np.cos(x),
                _sq(np.sin(p.squeeze_phase - p.channel_phase)))
    y = 2 * p.tritter_phase - 2 * p.pump_phase + p.squeeze_phase
    return (-(2.0 * ch2r * _sq(np.sin(0.5 * y)) + small * np.cos(y)),
            _sq(np.sin(p.theta)) * _sq(np.sin(p.channel_phase)) - 1.0)


def _qfi_exact(kind: str, p: _Point):
    """The "exact" QFI of the squeezing or mode-mixing channel."""
    s2, c2 = _sq(np.sin(p.theta)), _sq(np.cos(p.theta))
    sh_sq, sh2r_sq = _sq(np.sinh(p.r)), _sq(np.sinh(2 * p.r))
    if kind == "squeezing":
        eta1, eta2 = _phase_terms(kind, p)
        s2t_sq = _sq(np.sin(2 * p.theta))
        return (p.strength * p.strength / 16.0) * (
            4.0 + s2t_sq * sh_sq + 2.0 * (1.0 + c2 * c2) * eta2 * sh2r_sq
            + p.n0 * (4.0 * (s2 * s2) + eta1 * s2t_sq))
    eta3, phi1 = _phase_terms(kind, p)
    return (p.strength * p.strength / 8.0) * (
        (1.0 + c2) * sh2r_sq + s2 * phi1 * (sh2r_sq - 2.0 * sh_sq)
        + 2.0 * p.n0 * s2 * (s2 * _sq(np.sin(p.channel_phase)) + phi1 * eta3))


def _response(kind: str, p: _Point):
    """(c_mean, c_var): the number-sum signal's <S> ~ c_mean eps^2 and Var ~ c_var eps^2.

    The mode-mixing mean carries -Phi1 sinh^2 r where the large print shows
    -Phi2; the Phi1 form matches the pipeline exactly (see the regression tests).
    """
    sh2r_sq = _sq(np.sinh(2 * p.r))
    if kind == "squeezing":
        eta1, eta2 = _phase_terms(kind, p)
        common = (p.n0 * eta1 + _sq(np.cosh(p.r))) * _sq(np.sin(2 * p.theta))
        burst = (1.0 + _sq(_sq(np.cos(p.theta)))) * (sh2r_sq * eta2 + 1.0)
        mean_c, var_c = 0.25 * (common + 4.0 * burst), 0.25 * (common + 8.0 * burst)
    else:
        eta3, phi1 = _phase_terms(kind, p)
        s2, sh_sq = _sq(np.sin(p.theta)), _sq(np.sinh(p.r))
        mean_c = s2 * (phi1 * p.n0 * eta3 - phi1 * sh_sq + (phi1 - 1.0) * sh2r_sq) + 2.0 * sh2r_sq
        var_c = (phi1 * s2 * (p.n0 * eta3 - sh_sq + 2.0 * sh2r_sq)
                 + 2.0 * (1.0 + _sq(np.cos(p.theta))) * sh2r_sq)
    arg_sq = _sq(0.25 * p.strength)
    return arg_sq * mean_c, arg_sq * var_c


def _f0_exact(kind: str, p: _Point):
    """The "exact" F0, the small-strain ratio (d<S>)^2/Var = 4 c_mean^2 / c_var."""
    mean_c, var_c = _response(kind, p)
    return 4.0 * _sq(mean_c) / var_c


def _turning_point_argument(nbar, n_side):
    """cos(2 theta_t): the arccos argument of :func:`optimal_tritter_angle`, unchecked."""
    n = n_side
    num = n * (n + 4.0) - 2.0 * nbar
    den = n * (2.0 * nbar - 3.0 * n - 1.0) + 2.0 * (nbar - n) * np.sqrt(n * (n + 2.0))
    return num / den


# A regime's checks are functions of (kind, p, name) on a _Point of scalars,
# run in order; each refuses with a RegimeError worded with the regime's name.

def _require(cond, name: str, words: str):
    if not cond:
        raise RegimeError(f"regime {name!r} {words}")


def _holds(test, words: str):
    """The check that ``test(p)`` holds; ``words``, formatted with ``p``, end its refusal."""
    return lambda kind, p, name: _require(test(p), name, words.format(p=p))


def _at_theta(angle: float):
    return _holds(lambda p: abs(p.theta - angle) < 1e-9,
                  f"holds at theta = {angle:.6f}, config has theta = {{p.theta}}")


_large_nbar = _holds(lambda p: p.nbar >= LARGE_NBAR_FLOOR,
                     f"assumes nbar >= {LARGE_NBAR_FLOOR:.0e}, got {{p.nbar}}")
_large_r = _holds(lambda p: p.r >= 1.0, "assumes r >> 1, got r = {p.r}")


def _optimal_phases(kind: str, p: _Point, name: str):
    if kind == "squeezing":
        x = 2 * p.tritter_phase - 2 * p.pump_phase - p.squeeze_phase + 2 * p.channel_phase
        _require(abs(1.0 - np.cos(x)) < 1e-9
                 and abs(1.0 - np.sin(p.squeeze_phase - p.channel_phase) ** 2) < 1e-9,
                 name, "assumes the optimal phase relations")
    else:
        y = 2 * p.tritter_phase - 2 * p.pump_phase + p.squeeze_phase
        _require(abs(1.0 + np.cos(y)) < 1e-9, name, "assumes the optimal phase relation")


def _undepleted(kind: str, p: _Point, name: str):
    gamma = p.n_side / p.n0
    _require(gamma <= UNDEPLETED_DELTA, name, f"needs an undepleted pump; "
             f"side/pump ratio {gamma:.3g} exceeds {UNDEPLETED_DELTA}")
    # 1% headroom accepts bounds quoted at two significant digits
    bound = max_tritter_angle(gamma, UNDEPLETED_DELTA)
    _require(p.theta <= bound * 1.01, name, f"holds for theta <= {bound:.4f}, got {p.theta}")


def _at_turning_point(kind: str, p: _Point, name: str):
    _require(p.r > 0, name, "needs r > 0")
    t = optimal_tritter_angle(p.nbar, p.n_side)
    _require(abs(p.theta - t) < 1e-6, name, f"holds at theta_t = {t:.6f}, got {p.theta}")


def _positive_variance(kind: str, p: _Point, name: str):
    var_c = _response(kind, p)[1]
    if var_c <= 0:
        raise FloatingPointError(f"non-positive variance coefficient {var_c!r}")


_TURNING = (_large_nbar, _optimal_phases, _at_turning_point)
_PHI_ZERO = (_at_theta(np.pi / 2), _holds(lambda p: abs(np.sin(p.channel_phase)) < 1e-9,
                                          "holds at channel phase 0"),
             _large_nbar, _optimal_phases)
_PUMPED = (_large_nbar, _optimal_phases, _undepleted)
# (B^2/2) theta^2 n0 n, F0's as well as the QFI's, for both kinds
_PUMPED_LIMIT = (_PUMPED + (_large_r,),
                 lambda p: _pumped_gain(p.n0, p.n_side, p.theta, p.strength))


def _pumped_qfi(vacuum: float):  # the squeezing form keeps the vacuum term 1
    return lambda p: 0.25 * _sq(p.strength) * (vacuum + _sq(p.n_side) + _sq(p.theta) * (
        p.n0 * np.exp(2 * p.r) + 0.5 * p.n_side - _sq(p.n_side)))


def _mode_mixing_large_nbar(p: _Point):
    eta3, phi1 = _phase_terms("mode_mixing", p)
    s2 = _sq(np.sin(p.theta))
    return 0.25 * _sq(p.strength) * p.nbar * s2 * (
        s2 * _sq(np.sin(p.channel_phase)) + phi1 * eta3)


def _mode_mixing_large_nbar_f0(p: _Point):
    eta3, phi1 = _phase_terms("mode_mixing", p)
    return 0.25 * _sq(p.strength) * _sq(np.sin(p.theta)) * phi1 * eta3 * p.nbar


# {(channel kind, "QFI" or "F0"): {regime: (checks, formula)}}: the one home of
# every named closed form
_REGIMES = {
    ("squeezing", "QFI"): {
        "exact": ((), lambda p: _qfi_exact("squeezing", p)),
        # the conventional SU(1,1), the original GW probe
        "theta_zero": ((_at_theta(0.0),), lambda p: original_scheme_qfi(
            p.r, p.squeeze_phase, p.channel_phase, p.strength)),
        "theta_half_pi": ((_at_theta(np.pi / 2),), lambda p: 0.25 * _sq(p.strength) * (
            1.0 + p.n0 + 0.5 * _phase_terms("squeezing", p)[1] * _sq(np.sinh(2 * p.r)))),
        "turning_point": (_TURNING, lambda p: (_sq(p.strength) / 32.0) * p.nbar
                          * np.exp(2 * p.r) * (1.0 + 1.0 / np.tanh(p.r))),
        "turning_point_limit": (_TURNING, lambda p: (_sq(p.strength) / 8.0) * p.nbar * p.n_side),
        "large_nbar": ((_large_nbar,), lambda p: 0.25 * _sq(p.strength) * p.nbar * (
            _sq(_sq(np.sin(p.theta)))
            + 0.25 * _sq(np.sin(2 * p.theta)) * _phase_terms("squeezing", p)[0])),
        "large_nbar_limit": ((_large_nbar, _optimal_phases, _holds(
            lambda p: p.n_side >= 20, "assumes n_side >> 2, got {p.n_side:.3g}")),
            lambda p: (_sq(p.strength) / 8.0) * _sq(np.sin(2 * p.theta)) * p.n_side * p.nbar),
        "pumped": (_PUMPED, _pumped_qfi(1.0)),
        "pumped_limit": _PUMPED_LIMIT,
    },
    ("mode_mixing", "QFI"): {
        "exact": ((), lambda p: _qfi_exact("mode_mixing", p)),
        # printed large-N shorthand: n^2 in place of sinh^2(2r) = n(n+2)
        "theta_zero": ((_at_theta(0.0),), lambda p: 0.25 * _sq(p.strength) * _sq(p.n_side)),
        "theta_half_pi_phi_half_pi": ((_at_theta(np.pi / 2), _holds(
            lambda p: abs(np.sin(p.channel_phase) ** 2 - 1.0) < 1e-9,
            "holds at channel phase pi/2")),
            lambda p: 0.25 * _sq(p.strength) * (p.n0 + 0.5 * _sq(p.n_side))),
        "theta_half_pi_phi_zero": (_PHI_ZERO, lambda p: 0.25 * _sq(p.strength) * (
            p.nbar * np.exp(2 * p.r) + p.n_side)),
        "theta_half_pi_phi_zero_limit": (_PHI_ZERO + (_large_r,),
                                         lambda p: 0.5 * _sq(p.strength) * p.nbar * p.n_side),
        "large_nbar": ((_large_nbar,), _mode_mixing_large_nbar),
        "large_nbar_limit": ((_large_nbar, _optimal_phases, _holds(
            lambda p: p.n_side >= 20, "assumes n_side >> 1/2, got {p.n_side:.3g}")),
            lambda p: 0.5 * _sq(p.strength) * _sq(np.sin(p.theta)) * (
                1.0 - _sq(np.sin(p.theta)) * _sq(np.sin(p.channel_phase))) * p.nbar * p.n_side),
        "pumped": (_PUMPED, _pumped_qfi(0.0)),
        "pumped_limit": _PUMPED_LIMIT,
    },
    ("squeezing", "F0"): {
        "exact": ((_positive_variance,), lambda p: _f0_exact("squeezing", p)),
        "large_nbar": ((_large_nbar,), lambda p: (_sq(p.strength) / 16.0)
                       * _sq(np.sin(2 * p.theta)) * _phase_terms("squeezing", p)[0] * p.nbar),
        "pumped_limit": _PUMPED_LIMIT,
    },
    ("mode_mixing", "F0"): {
        "exact": ((_positive_variance,), lambda p: _f0_exact("mode_mixing", p)),
        "large_nbar": ((_large_nbar,), _mode_mixing_large_nbar_f0),
        "pumped_limit": _PUMPED_LIMIT,
    },
}
SQUEEZING_REGIMES = frozenset(_REGIMES["squeezing", "QFI"])
MODE_MIXING_REGIMES = frozenset(_REGIMES["mode_mixing", "QFI"])


def _closed_form(kind: str, quantity: str, regime: str, p: _Point):
    """``quantity`` ("QFI" or "F0") in ``regime``: its checks in order, then its formula."""
    regimes = _REGIMES.get((kind, quantity))
    if regimes is None:
        raise ValueError(f"no closed-form {quantity} for channel kind {kind!r}")
    if regime not in regimes:
        name = quantity if quantity == "F0" else kind.replace("_", "-")
        raise ValueError(f"unknown {name} regime {regime!r}; choose one of {sorted(regimes)}")
    checks, formula = regimes[regime]
    for check in checks:
        check(kind, p, regime)
    return formula(p)


def qfi_closed_form(config: InterferometerConfig, regime: str = "exact") -> float:
    """Closed-form QFI, exact or in an explicitly named asymptotic regime.

    Raises RegimeError when the config violates the regime's assumptions
    (angle, phase relations, particle numbers); asymptotic formulas are never
    applied silently.
    """
    return _closed_form(config.channel.kind, "QFI", regime, _point(config))


def optimal_tritter_angle(nbar: float, n_side: float, mode: str = "exact") -> float:
    """The interior turning point of the QFI over the tritter angle.

    Valid at the optimal phase relations of the squeezing channel; the
    mode-mixing information shares this turning point at channel phase pi/2
    (at other phases its maximum sits at the pi/2 boundary).  ``mode="approx"``
    uses the large-nbar form pi/4 + arcsin(1/(n + sqrt(n(n+2))))/2.
    """
    if not n_side > 0:
        raise ValueError(f"need n_side > 0, got {n_side}")
    if nbar <= n_side:
        raise ValueError(f"need nbar > n_side, got nbar={nbar}, n_side={n_side}")
    if mode == "approx":
        return np.pi / 4.0 + 0.5 * np.arcsin(1.0 / (n_side + np.sqrt(n_side * (n_side + 2.0))))
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
    z = _turning_point_argument(nbar, n_side)
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"turning point undefined: arccos argument {z} outside [-1, 1]")
    return 0.5 * np.arccos(z)


def optimal_phases(kind: str, pump_phase: float = 0.0, channel_phase: float = 0.0,
                   squeeze_phase: float | None = None) -> tuple[float, float]:
    """Phase relations maximizing the QFI; returns (squeeze_phase, tritter_phase)."""
    if kind == "squeezing":
        sq = channel_phase + np.pi / 2.0
        return sq, pump_phase + sq / 2.0 - channel_phase
    if kind == "mode_mixing":
        sq = 0.0 if squeeze_phase is None else squeeze_phase
        return sq, pump_phase - sq / 2.0 + np.pi / 2.0
    raise ValueError(f"no optimal phase relation for channel kind {kind!r}")


# ----------------------------------------------------------------------------
# number-sum measurement
# ----------------------------------------------------------------------------

def number_sum_moments(state: GaussianState) -> tuple[float, float]:
    """Mean and variance of the total particle number of a Gaussian state (:func:`_number_sum`)."""
    mean, var = _number_sum(state.d, state.sigma - np.eye(len(state.d)))
    return float(mean), float(var)


def _number_sum(d: np.ndarray, delta: np.ndarray):
    """<S> = [Tr(sigma) + d^T d - 2n] / 4 and Var S = [Tr(sigma^2) + 2 d^T sigma d - 2n] / 8
    of n modes, from delta = sigma - I: <S> = [Tr delta + |d|^2] / 4 and
    Var S = <S> + [|delta|_F^2 + 2 d^T delta d] / 8, in which no identity cancels."""
    mean = 0.25 * (_trace(delta) + _dot(d, d))
    var = mean + 0.125 * (_inner(delta, delta) + 2.0 * _quad(d, delta, d))
    return mean, var


def heterodyne_moments(state: GaussianState) -> tuple[float, float]:
    """Mean and variance of the particle-number difference of a two-mode state."""
    if state.n_modes != 2:
        raise ValueError(f"heterodyne signal is defined on two modes, got {state.n_modes}")
    jz = np.diag([1.0, 1.0, -1.0, -1.0])
    d, sigma = state.d, state.sigma
    sj = sigma @ jz
    mean = 0.25 * (np.trace(sj) + d @ jz @ d)
    var = 0.125 * (np.trace(sj @ sj) + 2.0 * d @ jz @ sigma @ jz @ d - 4.0)
    return float(mean), float(var)


def number_sum_quadratic_response(config: InterferometerConfig) -> tuple[float, float]:
    """Leading coefficients of the number-sum signal: <S> ~ c_mean eps^2, Var ~ c_var eps^2,
    the closed forms of the small-strain side-mode moments (:func:`_response`)."""
    if (config.channel.kind, "F0") not in _REGIMES:
        raise ValueError(f"no closed-form response for channel kind {config.channel.kind!r}")
    return _response(config.channel.kind, _point(config))


def sensitivity_number_sum(config: InterferometerConfig,
                           eps0: float = 1e-3) -> tuple[float, float]:
    """Squared sensitivity Var(S)/(d<S>/d eps)^2 and its inverse F0.

    The number-sum signal is quadratic in the strain, so its derivative
    vanishes at zero strain; evaluate at a small nonzero ``eps0`` (the F0
    ratio is strain-independent at leading order).
    """
    var, d_mean, _, f0 = _at_config(config, eps0, "slopes", "F0")
    return float(var / (d_mean * d_mean)), float(f0)


def f0_closed_form(config: InterferometerConfig, regime: str = "exact") -> float:
    """Closed-form F0 of the number-sum measurement.

    "exact" is the small-strain ratio (d<S>)^2/Var built from the quadratic
    response coefficients; "large_nbar" and "pumped_limit" are the printed
    asymptotic forms, checked as :func:`qfi_closed_form`'s regimes are.
    """
    return _closed_form(config.channel.kind, "F0", regime, _point(config))


def fisher_from_moments(config: InterferometerConfig, eps0: float = 1e-3) -> float:
    """Fisher information of Gaussian-distributed number-sum data:
    F = F0 + 2 (d sqrt(Var))^2 / Var.

    Valid where the signal statistics are actually Gaussian (mean signal well
    above a single particle).  Near zero strain the variance itself scales as
    eps^2, making the second term 2/eps0^2 regardless of the configuration;
    there the Gaussian model, and with it the bound F <= H, breaks down.
    """
    var, d_mean, d_var = _at_config(config, eps0, "slopes")
    d_sigma = d_var / (2.0 * math.sqrt(var))
    return _squared(d_mean, "d<S>/d eps") / var \
        + 2.0 * _squared(d_sigma, "d sqrt(Var(S))/d eps") / var


def _squared(slope: float, name: str) -> float:
    try:
        return slope ** 2
    except OverflowError:  # a Python float's power raises instead of returning inf
        raise FloatingPointError(f"the square of the slope {name} = {slope!r} "
                                 "overflows") from None


# ----------------------------------------------------------------------------
# batched evaluation
# ----------------------------------------------------------------------------

QUANTITY_COLUMNS = {"H_numeric": ("H_numeric",), "H_closed": ("H_closed",), "F0": ("F0",),
                    "moments": ("mean_S", "var_S"), "theta_t": ("theta_t",)}
# the kernel's columns, with the private quantity of the number-sum functions:
# Var(S) and the strain slopes of <S> and Var(S)
_COLUMNS = {**QUANTITY_COLUMNS, "slopes": ("var", "d_mean", "d_var")}


def _at_config(config: InterferometerConfig, eps0: float, *quantities: str) -> tuple:
    """The columns of ``quantities`` at one configuration, a one-point grid;
    raises the first error."""
    values, errors = _evaluate_grid(config.channel.kind, _point(config), eps0, quantities,
                                    (), True)
    if errors:
        raise errors[0][0][1]
    return tuple(values[column][0] for q in quantities for column in _COLUMNS[q])


def _evaluate_grid(kind: str, p: _Point, eps0, quantities, shape, valid):
    """Evaluate ``quantities`` on a grid of one channel kind; ``(values, errors)``.

    ``p`` and ``eps0`` hold scalars or arrays that broadcast to ``shape``, and
    :func:`_evaluate_stack` computes every grid point at once, with the checks
    of each quantity in the order they apply.  A grid point among those
    ``valid`` marks (a flat mask, or True) carries, for each quantity, the
    error of that quantity's first failing check (:func:`pipeline._row_errors`
    words it, once per point of the check's own shape); the other points carry
    their values.  ``values`` maps each output column to a list with one cell per
    grid point in C order, None where the quantity failed; ``errors`` maps the
    flat index of each row with a failure to its (quantity, exception) pairs,
    each exception without a traceback.
    """
    stacked = _evaluate_stack(kind, p, eps0, quantities)
    values, errors = {}, {}
    for quantity in quantities:
        columns = _COLUMNS[quantity]
        arrays, checks = stacked[quantity]
        values.update(zip(columns, (_flat(a, shape).tolist() for a in arrays)))
        for i, exc in _row_errors(checks, shape, valid).items():
            errors.setdefault(i, []).append((quantity, exc))
            for column in columns:
                values[column][i] = None
    return values, errors


def _common(first, *rest):
    # a fill takes its shape from its first argument, so the others may be
    # scalars; any other mix is broadcast to one shape
    if all(np.ndim(a) == 0 for a in rest):
        return (first, *rest)
    return np.broadcast_arrays(first, *rest)


def _evaluate_stack(kind: str, p: _Point, eps0, quantities) -> dict:
    """{quantity: (column arrays, checks)} for every quantity in ``quantities``.

    H_numeric, F0 and the moments are evaluated in the input frame: the
    coherent pump d with sigma = I.  S = S_plus (source squeezer, then
    tritter) carries it to the channel, so the channel's generator K acts on
    the input as A = S^-1 K S, with S^-1 = Omega^T S^T Omega exact, and the
    pure-state QFI is H = (1/4) |A + A^T|_F^2 + |A d|^2.  The whole
    interferometer at eps0 maps the input by M = S^-1 C S = I + E, with
    E = S^-1 (C - I) S built from the channel's step C - I, so the output
    state is d + E d and sigma - I = E + E^T + E E^T, and its strain tangents
    are dM/deps = A M.  The number sum reads the side-mode slice of these;
    neither the identity nor the squeezed covariance is ever formed and
    subtracted.  Each element is filled at the broadcast shape of its own
    arguments (the squeezer over r and the squeeze phase, the tritter over
    theta and its phase, the channel over eps0, the strength and the channel
    phase), so a one-point grid runs on single matrices, and the returned
    arrays and masks broadcast to the grid.  Every element is symplectic by
    construction, so no residual is taken; each quantity checks that its own
    values are finite and well defined.
    """
    out = {}
    with np.errstate(all="ignore"):  # the checks report non-finite values
        if "H_closed" in quantities:
            if (kind, "QFI") in _REGIMES:
                out["H_closed"] = ((_qfi_exact(kind, p),), [])
            else:  # no closed form: the scalar function's error
                out["H_closed"] = ((np.nan,), [_scalar_check(
                    True, lambda: _closed_form(kind, "QFI", "exact", p))])
        if "theta_t" in quantities:
            z = _turning_point_argument(p.nbar, p.n_side)
            theta_t = 0.5 * np.arccos(z)  # as optimal_tritter_angle
            # every row reported on has n0 > 0, so its checks fail where theta_t
            # is NaN: r = 0 gives z = -inf, and an argument outside [-1, 1] a NaN
            out["theta_t"] = ((theta_t,), [_scalar_check(
                ~np.isfinite(theta_t), optimal_tritter_angle, p.nbar, p.n_side)])
        strained = not {"F0", "slopes", "moments"}.isdisjoint(quantities)
        if not strained and "H_numeric" not in quantities:
            return out
        s_plus = _tritter_matrix(*_common(p.theta, p.tritter_phase)) @ _with_pump(
            _side_channel("squeezing", *_common(p.r, p.squeeze_phase)))
        # K and C - I vanish on the pump, so they meet only the side rows of S
        # and the side columns of S^-1
        rows, cols = s_plus[..., 2:, :], _symplectic_inverse(s_plus)[..., 2:]
        K = _generator(kind, *_common(p.strength, p.channel_phase))[..., 2:, 2:]
        d = _pump_displacement(*_common(p.n0, p.pump_phase))
        if "H_numeric" in quantities:
            A = cols @ K @ rows
            a_d = _matvec(A, d)
            sym = A + _t(A)
            h = 0.25 * _inner(sym, sym) + _dot(a_d, a_d)
            out["H_numeric"] = ((h,), [(
                ~np.isfinite(h), lambda j: FloatingPointError(f"QFI evaluated to {_item(h, j)}"))])
        if not strained:
            return out
        step = _side_step(kind, *_common(_channel_argument(kind, eps0, p.strength),
                                         p.channel_phase))
        E = cols @ step @ rows
        delta = E + _t(E) + E @ _t(E)  # sigma_out - I
        e_d = _matvec(E, d)  # d_out - d; d is zero on the side modes
        side, d_side = delta[..., 2:, 2:], e_d[..., 2:]
        mean, var = _number_sum(d_side, side)
        if "moments" in quantities:
            out["moments"] = ((mean, var), [(
                ~(np.isfinite(mean) & np.isfinite(var)), lambda j: FloatingPointError(
                    f"number-sum moments evaluated to <S> = {_item(mean, j)}, "
                    f"Var(S) = {_item(var, j)}"))])
        if {"F0", "slopes"}.isdisjoint(quantities):
            return out
        # the side rows of the tangent M' = dM/deps = A M = S^-1 K C S, conjugated
        # as one product: its side trace is then as well conditioned as that of
        # E (a product A E would cancel large terms); sigma' = M' M^T + M M'^T
        # and d' = M' d
        tangent = cols[..., 2:, :] @ (K @ step + K) @ rows
        half = tangent[..., 2:] + tangent @ _t(E[..., 2:, :])
        side_dot = half + _t(half)
        d_dot = _matvec(tangent, d)
        d_mean = 0.25 * (_trace(side_dot) + 2.0 * _dot(d_side, d_dot))
        d_var = d_mean + 0.25 * (_inner(side, side_dot)
                                 + 2.0 * _quad(d_dot, side, d_side)
                                 + _quad(d_side, side_dot, d_side))
        slopes = [(eps0 == 0, lambda j: ValueError(
            "number-sum signal is stationary at zero strain; use eps0 > 0")), (
            ~(np.isfinite(d_mean) & np.isfinite(var)), lambda j: FloatingPointError(
                f"number-sum signal evaluated to d<S>/d eps = {_item(d_mean, j)}, "
                f"Var(S) = {_item(var, j)}")), (
            d_mean == 0, lambda j: FloatingPointError(
                "vanishing signal derivative: measurement is insensitive at this point")), (
            var <= 0, lambda j: FloatingPointError(
                f"non-positive signal variance {_item(var, j)!r}"))]
        out["slopes"] = ((var, d_mean, d_var), slopes)
        # F0, the ratio's inverse, has no finite value where the squared
        # slope or the ratio is zero: an underflow, or an overflowing slope
        square = d_mean * d_mean
        delta_sq = var / square
        out["F0"] = ((1.0 / delta_sq,), slopes + [(
            (square == 0) | (delta_sq == 0), lambda j: ZeroDivisionError(
                f"degenerate ratio Var(S)/(d<S>/d eps)^2 = {_item(delta_sq, j)!r} "
                f"(Var(S) = {_item(var, j)!r}, (d<S>/d eps)^2 = {_item(square, j)!r})"))])
    return out
