"""Composition of the full interferometer and undepleted-pump bookkeeping.

The instrument is source squeezer -> tritter -> probed channel -> reverse
tritter -> reverse squeezer.  Between the source squeezer and the tritter the
pump amplitude is rescaled from sqrt(nbar) to sqrt(n0) with
n0 = nbar - 2 sinh^2 r, so that total particle number is conserved.  That
replacement is a modeling step, not a symplectic map, which is why it lives
here and not in :mod:`channels`.

Nothing is cached on a config: a strain evaluation builds the squeezer, the
tritter and the channel (and S_minus for the output state).  Each config the
package builds is evaluated once; a grid goes to the kernel of :mod:`metrology`.

Grids of parameters share one failure protocol, :func:`_row_errors`: each
check is a mask over the grid and a function that words a failing point's
error, and each failing row carries the error of its first failing check.
The metrology kernel's quantities, the sweep's row checks and the ``[gw]``
comparison all report their failures through it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, pumped_two_mode_squeezer, tritter
from .states import GaussianState, SymplecticOp, apply_symplectic, pumped_input_state

__all__ = [
    "InterferometerConfig",
    "PumpDepletedError",
    "pump_depletion",
    "pre_measurement_state",
    "run_interferometer",
    "particle_numbers_after_tritter",
    "max_tritter_angle",
]


class PumpDepletedError(ValueError):
    """The source squeezer would use more particles than the pump carries."""


@dataclass(frozen=True)
class InterferometerConfig:
    """All physical parameters of one interferometer instance.

    Attributes:
        nbar: total input particle number.
        pump_phase: phase of the pump coherent amplitude.
        r: source two-mode squeezing parameter.
        squeeze_phase: source squeezing phase.
        theta: tritter angle, in [0, pi/2].
        tritter_phase: tritter phase.
        channel: the probed Gaussian channel.
    """

    nbar: float
    r: float
    theta: float
    channel: ChannelSpec
    pump_phase: float = 0.0
    squeeze_phase: float = 0.0
    tritter_phase: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.nbar, self.r, self.theta, self.pump_phase,
                                        self.squeeze_phase, self.tritter_phase))):
            raise ValueError(f"interferometer parameters must be finite, got {self}")
        pump_depletion(self.nbar, self.r)  # raises if the pump cannot dominate
        _check_tritter_angle(self.theta)

    @property
    def forward_half(self) -> SymplecticOp:
        """S_plus: the source squeezer followed by the tritter."""
        return tritter(self.theta, self.tritter_phase) \
            @ pumped_two_mode_squeezer(self.r, self.squeeze_phase)

    @property
    def reverse_half(self) -> SymplecticOp:
        """S_minus = S_plus^-1: the reverse tritter followed by the reverse squeezer."""
        return self.forward_half.inverse()


def _side_population(r):
    """Side-mode population n_side = 2 sinh^2 r of the source squeezer.

    The square is a product, not ``** 2``: a numpy scalar squares through
    ``pow`` and an array through a product, and the two can differ in the last
    bit.  Written this way one value of r gives one n_side bit for bit, as a
    scalar or as an element of an array of any shape, so :func:`pump_depletion`,
    the sweep grid and :mod:`gw` agree.
    """
    s = np.sinh(r)
    return 2.0 * (s * s)


def pump_depletion(nbar: float, r: float) -> tuple[float, float]:
    """Split the input number into pump and side-mode populations.

    Returns (n0, n_side) with n_side = 2 sinh^2 r and n0 = nbar - n_side, so
    that n0 + n_side = nbar exactly.
    """
    n_side = _side_population(r)
    n0 = nbar - n_side
    if n0 <= 0:
        raise PumpDepletedError(
            f"pump depleted: source squeezing needs {n_side:.6g} particles "
            f"but only {nbar:.6g} are available")
    return n0, n_side


def _check_tritter_angle(theta: float) -> None:
    if not 0.0 <= theta <= np.pi / 2:
        raise ValueError(f"tritter angle must lie in [0, pi/2], got {theta}")


def pre_measurement_state(config: InterferometerConfig,
                          epsilon: float | None = None) -> GaussianState:
    """State after source, tritter and probed channel (no return path).

    This is the family whose quantum Fisher information bounds the estimation
    of the channel strain.  The input state takes the source squeezer, the
    tritter and the channel one at a time (S_plus in one step rounds
    differently); at zero strain the channel is the exact identity.
    """
    n0, _ = pump_depletion(config.nbar, config.r)
    state = pumped_input_state(n0, config.pump_phase)
    for op in (pumped_two_mode_squeezer(config.r, config.squeeze_phase),
               tritter(config.theta, config.tritter_phase),
               config.channel.three_mode(epsilon)):
        state = apply_symplectic(state, op)
    return state


def run_interferometer(config: InterferometerConfig,
                       epsilon: float | None = None) -> GaussianState:
    """Full three-mode output state, including the reverse tritter and squeezer."""
    return apply_symplectic(pre_measurement_state(config, epsilon), config.reverse_half)


def particle_numbers_after_tritter(n0: float, n_side: float,
                                   theta: float) -> tuple[float, float]:
    """Pump and side-mode populations after the tritter stage.

    n0(theta) = n0 cos^2(theta) + n/2 sin^2(theta);
    n(theta)  = n0 sin^2(theta) + n/2 (1 + cos^2(theta)).  The sum is conserved.
    """
    if n0 < 0 or n_side < 0:
        raise ValueError("populations must be nonnegative")
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    pump = n0 * c2 + 0.5 * n_side * s2
    side = n0 * s2 + 0.5 * n_side * (1.0 + c2)
    return pump, side


def max_tritter_angle(gamma, delta):
    """Largest tritter angle keeping the pump relatively undepleted.

    ``gamma`` is the initial side/pump population ratio and ``delta`` the
    largest ratio tolerated after the tritter.  At the returned angle the
    post-tritter ratio equals delta exactly.  Broadcasts over arrays of
    ``gamma`` and ``delta``; raises if any element fails a check.
    """
    if not np.all((0.0 <= gamma) & (gamma <= delta)):
        raise ValueError(f"need 0 <= gamma <= delta, got gamma={gamma}, delta={delta}")
    if np.any(delta >= 1.0):
        raise ValueError(f"delta must be small compared to 1, got {delta}")
    z = _angle_bound_argument(gamma, delta)
    if not np.all((-1.0 <= z) & (z <= 1.0)):
        raise ValueError(f"angle bound undefined: arccos argument {z} outside [-1, 1]")
    return 0.5 * np.arccos(z)


def _angle_bound_argument(gamma, delta):
    """cos(2 theta_max): the arccos argument of :func:`max_tritter_angle`, unchecked."""
    return (delta * gamma + 2.0 * delta - 3.0 * gamma - 2.0) \
        / (delta * gamma - 2.0 * delta + gamma - 2.0)


# A check is a pair (failed, error): a mask at its own shape, and a function of
# a flat index into that shape that builds the point's exception (or returns
# None where the point passes after all).

def _row_errors(checks, shape, valid=True) -> dict:
    """{flat row: exception} for the rows of a grid of ``shape`` that fail ``checks``.

    The masks broadcast to ``shape``, and ``checks`` lists them in the order
    they apply.  A row among those ``valid`` marks (a flat mask, or True)
    carries the error of its first failing check.  A check depends only on the
    parameters its mask varies over, so its error is built once per point of
    the mask's own shape and shared by the grid rows over that point.  Rows
    are flat indices in C order; each exception is stored without a traceback.
    """
    errors = {}
    pending = _flat(functools.reduce(operator.or_, (failed for failed, _ in checks), False),
                    shape) & valid
    if not pending.any():
        return errors
    for failed, error in checks:
        rows = np.flatnonzero(pending & _flat(failed, shape))
        if not rows.size:
            continue
        pending[rows] = False
        points = _flat(np.arange(np.size(failed)).reshape(np.shape(failed)), shape)[rows]
        built = {}
        for i, point in zip(rows.tolist(), points.tolist()):
            if point not in built:
                built[point] = error(point)
            if built[point] is not None:
                errors[i] = built[point]
    return errors


def _scalar_check(failed, call, *fields):
    """A check whose error comes from a scalar function: where ``failed``, the
    point's outcome is that of ``call`` on the point's ``fields``, as Python floats."""
    own = np.broadcast(failed, *fields).shape

    def error(j):
        try:
            with np.errstate(all="ignore"):  # its own checks report a non-finite value
                call(*(_item(np.broadcast_to(field, own), j) for field in fields))
        except Exception as exc:
            # a traceback's frames lead back to the caller, whose locals hold the
            # errors: that cycle would keep the whole grid alive until the garbage
            # collector runs
            return exc.with_traceback(None)
    return (failed if np.shape(failed) == own else np.broadcast_to(failed, own)), error


def _flat(value, shape) -> np.ndarray:
    """``value``, a scalar or an array that broadcasts to ``shape``, with one entry per grid point."""
    value = np.asarray(value)
    if value.shape != shape:
        value = np.broadcast_to(value, shape)
    return value.ravel()


def _item(values, j) -> float:
    # entry j of an array, or of a numpy scalar, as a Python float
    return np.asarray(values).flat[j].item()
