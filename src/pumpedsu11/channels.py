"""Symplectic matrices for every element of the interferometer.

Three-mode operations (pump + two side modes) are 6x6; the two-mode Gaussian
channels acting on the side modes alone are 4x4 and can be lifted into the
three-mode space with :func:`embed_on_side_modes`.

Each element's entries are written once, in a private fill function whose
arguments broadcast over leading axes: the public builders wrap the scalar case
in one checked :class:`SymplecticOp`, and ``metrology._evaluate_grid`` fills a
whole sweep's elements as (N, 6, 6) stacks with the same functions.  A
channel's fill is its step C - I, written without cancellation (cosh x - 1 =
2 sinh^2(x/2), cos x - 1 = -2 sin^2(x/2)); the channel itself is I plus that
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import SymplecticOp, check_symplectic, symplectic_form

__all__ = [
    "ChannelSpec",
    "pumped_two_mode_squeezer",
    "tritter",
    "tritter_from_generator",
    "squeezing_channel",
    "mode_mixing_channel",
    "phase_channel",
    "gw_squeezing_channel",
    "gw_mode_mixing_channel",
    "embed_on_side_modes",
]

CHANNEL_KINDS = ("squeezing", "mode_mixing", "phase")


def _side_pair(diag, upper, lower) -> np.ndarray:
    """Side-mode matrices [[diag I, upper], [lower, diag I]], filled directly (4x4).

    ``upper`` and ``lower`` are 2x2 blocks given as ((a, b), (c, d)).  Every
    entry broadcasts over leading axes and has the shape of ``diag``, so one
    call fills a single matrix or a stack of them.
    """
    mat = np.zeros(np.shape(diag) + (4, 4))
    mat[..., 0, 0] = mat[..., 1, 1] = mat[..., 2, 2] = mat[..., 3, 3] = diag
    for i in (0, 1):
        for j in (0, 1):
            mat[..., i, 2 + j] = upper[i][j]
            mat[..., 2 + i, j] = lower[i][j]
    return mat


def _with_pump(side: np.ndarray, pump=1.0) -> np.ndarray:
    """Three-mode matrices: ``pump`` times the identity on the pump (+) ``side`` (6x6)."""
    mat = np.zeros(side.shape[:-2] + (6, 6))
    mat[..., 0, 0] = mat[..., 1, 1] = pump
    mat[..., 2:, 2:] = side
    return mat


def _squeeze_block(sh, phi):
    # sh times the reflection [[cos phi, sin phi], [sin phi, -cos phi]]
    a, b = sh * np.cos(phi), sh * np.sin(phi)
    return ((a, b), (b, -a))


def _mixing_blocks(s, phi):
    # s times the rotation R = [[cos phi, sin phi], [-sin phi, cos phi]], and -s R^T
    a, b = s * np.cos(phi), s * np.sin(phi)
    return ((a, b), (-b, a)), ((-a, b), (-b, -a))


def _rotation_pair(c, s) -> np.ndarray:
    # [[c, s], [-s, c]] on each side mode (4x4)
    mat = np.zeros(np.shape(c) + (4, 4))
    mat[..., 0, 0] = mat[..., 1, 1] = mat[..., 2, 2] = mat[..., 3, 3] = c
    mat[..., 0, 1] = mat[..., 2, 3] = s
    mat[..., 1, 0] = mat[..., 3, 2] = -s
    return mat


def _tritter_matrix(theta, phase) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    sv, cv = np.sin(phase), np.cos(phase)
    f = s / np.sqrt(2.0)
    half = np.cos(theta / 2.0)
    cc = half * half  # not ** 2: a numpy scalar squares through pow, an array does not
    mm = 0.5 * (c - 1.0)
    same = ((mm, 0.0), (0.0, mm))
    mat = _with_pump(_side_pair(cc, same, same), c)
    a, b = f * sv, f * cv
    for j in (2, 4):  # the pump couples to each side mode alike
        mat[..., 0, j], mat[..., 0, j + 1] = a, b
        mat[..., 1, j], mat[..., 1, j + 1] = -b, a
        mat[..., j, 0], mat[..., j, 1] = -a, b
        mat[..., j + 1, 0], mat[..., j + 1, 1] = -b, -a
    return mat


def pumped_two_mode_squeezer(r: float, squeeze_phase: float = 0.0) -> SymplecticOp:
    """Two-mode squeezer populating the side modes; identity on the pump.

    Args:
        r: squeezing parameter (signed; the inverse element is r -> -r).
        squeeze_phase: squeezing phase, radians.
    """
    return SymplecticOp(3, _with_pump(_side_channel("squeezing", r, squeeze_phase)))


def tritter(theta: float, phase: float = 0.0) -> SymplecticOp:
    """Three-way beam splitter mixing the pump with both side modes.

    The pump couples to the symmetric combination of the side modes with
    mixing angle ``theta``; theta = 0 is the identity.  Note this differs from
    a two-way beam splitter: theta = pi/2 does not fully swap pump and sides.
    """
    return SymplecticOp(3, _tritter_matrix(theta, phase))


def tritter_from_generator(theta: float, phase: float = 0.0) -> SymplecticOp:
    """Tritter built by exponentiating its quadratic Hamiltonian generator.

    Independent cross-check for :func:`tritter`: the coupling Hamiltonian
    (pump)-(side sum) is written as a quadratic form (1/2) x^T M x in the q,p
    basis and the flow S = exp(2 theta Omega M) is evaluated with a
    scaling-and-squaring matrix exponential.
    """
    # H/(hbar G) = (1/(2 sqrt 2)) sum_j [cos(phase)(q0 qj + p0 pj)
    #                                    - sin(phase)(q0 pj - p0 qj)],  j = 1, 2
    from scipy.linalg import expm  # only this cross-check needs scipy

    g = 1.0 / (2.0 * np.sqrt(2.0))
    cv, sv = np.cos(phase), np.sin(phase)
    M = np.zeros((6, 6))
    for j in (1, 2):
        q, p = 2 * j, 2 * j + 1
        M[0, q] = M[q, 0] = g * cv
        M[1, p] = M[p, 1] = g * cv
        M[0, p] = M[p, 0] = -g * sv
        M[1, q] = M[q, 1] = g * sv
    flow = expm(2.0 * theta * symplectic_form(3) @ M)
    if not np.all(np.isfinite(flow)):
        raise FloatingPointError("matrix exponential of the tritter generator did not converge")
    return SymplecticOp(3, flow)


def squeezing_channel(s: float, phase: float = 0.0) -> SymplecticOp:
    """Two-mode squeezing channel on the side modes (4x4)."""
    return SymplecticOp(2, _side_channel("squeezing", s, phase))


def mode_mixing_channel(m: float, phase: float = 0.0) -> SymplecticOp:
    """Mode-mixing channel (generalized beam splitter) on the side modes (4x4).

    Passive: orthogonal as well as symplectic, so it preserves total particle
    number.
    """
    return SymplecticOp(2, _side_channel("mode_mixing", m, phase))


def phase_channel(phi: float) -> SymplecticOp:
    """Phase evolution exp(-i phi N/2) of the side modes; identity on the pump (6x6)."""
    return SymplecticOp(3, _with_pump(_side_channel("phase", phi, 0.0)))


def gw_squeezing_channel(s_nm: float, phase: float = 0.0, form: str = "exact") -> SymplecticOp:
    """Resonant gravitational-wave squeezing channel on two phonon modes.

    ``form="exact"`` is the full two-mode squeezing channel; ``form="second_order"``
    is the strain-squared truncation [1 + s^2/2] on the diagonal with s R off
    blocks, which is symplectic only to O(s^4).
    """
    if form == "exact":
        return squeezing_channel(s_nm, phase)
    if form != "second_order":
        raise ValueError(f"unknown form {form!r}")
    block = _squeeze_block(s_nm, phase)
    mat = _side_pair(1.0 + 0.5 * s_nm ** 2, block, block)
    # truncation breaks symplecticity at O(s^4); widen the constructor tolerance
    return SymplecticOp(2, mat, tol=max(1e-10, 2.0 * s_nm ** 4))


def gw_mode_mixing_channel(s_nm: float, phase: float = 0.0, form: str = "exact") -> SymplecticOp:
    """Resonant gravitational-wave mode-mixing channel on two phonon modes."""
    if form == "exact":
        return mode_mixing_channel(s_nm, phase)
    if form != "second_order":
        raise ValueError(f"unknown form {form!r}")
    upper, lower = _mixing_blocks(s_nm, phase)
    mat = _side_pair(1.0 - 0.5 * s_nm ** 2, upper, lower)
    return SymplecticOp(2, mat, tol=max(1e-10, 2.0 * s_nm ** 4))


def embed_on_side_modes(op: SymplecticOp) -> SymplecticOp:
    """Lift a two-mode side-channel into the three-mode space: I_2 (+) S."""
    if op.n_modes != 2:
        raise ValueError(f"expected a two-mode operation, got {op.n_modes} modes")
    if not check_symplectic(op.matrix):
        raise ValueError("refusing to embed a non-symplectic operation")
    return SymplecticOp(3, _with_pump(op.matrix), tol=op.tol)


@dataclass(frozen=True)
class ChannelSpec:
    """Which Gaussian channel the interferometer probes, and how strongly.

    The estimation parameter is the strain ``epsilon``; the channel argument
    actually applied is s = epsilon*strength/4 (squeezing), m = epsilon*strength/4
    (mode mixing), or phi = epsilon*strength (phase).  ``strength`` is the
    dimensionless proportionality constant (B or A) and excludes epsilon.
    """

    kind: str
    strength: float = 1.0
    phase: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"channel kind must be one of {CHANNEL_KINDS}, got {self.kind!r}")
        if not all(map(math.isfinite, (self.strength, self.phase, self.epsilon))):
            raise ValueError(f"channel parameters must be finite, got {self}")
        if self.strength < 0:
            raise ValueError(f"strength constant must be nonnegative, got {self.strength}")

    def channel_argument(self, epsilon: float | None = None) -> float:
        return _channel_argument(self.kind, self.epsilon if epsilon is None else epsilon,
                                 self.strength)

    def three_mode(self, epsilon: float | None = None) -> SymplecticOp:
        """The channel in the three-mode pipeline at the given strain (identity on the pump)."""
        return SymplecticOp(3, _with_pump(_side_channel(self.kind, self.channel_argument(epsilon),
                                                        self.phase)))

    def generator(self) -> np.ndarray:
        """The 6x6 strain generator K, zero on the pump: three_mode(eps) = expm(eps K)."""
        return _generator(self.kind, self.strength, self.phase)


# The functions below take ``kind`` plus arrays that broadcast over a
# leading axis, so a batch of channels of one kind is filled in one call.

def _channel_argument(kind: str, epsilon, strength):
    """s = eps strength/4 (squeezing), m = eps strength/4 (mode mixing), phi = eps strength."""
    if kind == "phase":
        return epsilon * strength
    return 0.25 * epsilon * strength


def _side_step(kind: str, arg, phase) -> np.ndarray:
    """C - I for the channel's side-mode block C (4x4) at channel argument ``arg``.

    The diagonal is filled as cosh x - 1 = 2 sinh^2(x/2) (squeezing) or
    cos x - 1 = -2 sin^2(x/2) (mode mixing, and the phase rotation by arg/2),
    so a small step keeps its relative precision.
    """
    if kind == "phase":
        h = np.sin(0.25 * arg)
        return _rotation_pair(-2.0 * (h * h), np.sin(0.5 * arg))
    if kind == "squeezing":
        h = np.sinh(0.5 * arg)
        block = _squeeze_block(np.sinh(arg), phase)
        return _side_pair(2.0 * (h * h), block, block)
    h = np.sin(0.5 * arg)
    return _side_pair(-2.0 * (h * h), *_mixing_blocks(np.sin(arg), phase))


def _side_channel(kind: str, arg, phase) -> np.ndarray:
    """The channel's side-mode block (4x4) at channel argument ``arg``: I + its step."""
    return _side_step(kind, arg, phase) + np.eye(4)


def _generator(kind: str, strength, phase) -> np.ndarray:
    """Strain generators K (6x6, zero on the pump): the slope of the fill at zero strain."""
    if kind == "phase":
        h = 0.5 * strength
        side = _rotation_pair(0.0 * h, h)
    else:
        q = 0.25 * strength
        blocks = ((_squeeze_block(q, phase),) * 2 if kind == "squeezing"
                  else _mixing_blocks(q, phase))
        side = _side_pair(0.0 * q, *blocks)
    return _with_pump(side, 0.0)
