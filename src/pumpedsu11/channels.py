"""Symplectic matrices for every element of the interferometer.

Three-mode operations (pump + two side modes) are 6x6; the two-mode Gaussian
channels acting on the side modes alone are 4x4 and can be lifted into the
three-mode space with :func:`embed_on_side_modes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .states import SymplecticOp, check_symplectic, symplectic_form

__all__ = [
    "ChannelSpec",
    "reflection_phase_matrix",
    "rotation_matrix",
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


def reflection_phase_matrix(phi: float) -> np.ndarray:
    """2x2 reflection [[cos, sin], [sin, -cos]] carrying a squeezing phase."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [s, -c]])


def rotation_matrix(phi: float) -> np.ndarray:
    """2x2 rotation [[cos, sin], [-sin, cos]] carrying a mode-mixing phase."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def _side_pair(n_modes: int, diag: float, upper, lower) -> np.ndarray:
    """Matrix [[diag I, upper], [lower, diag I]] on the two side modes, filled directly.

    ``upper`` and ``lower`` are 2x2 blocks given as ((a, b), (c, d)).  With
    ``n_modes = 3`` the leading pump mode gets the identity.
    """
    mat = np.zeros((2 * n_modes, 2 * n_modes))
    k = 2 * n_modes - 4
    if k:
        mat[0, 0] = mat[1, 1] = 1.0  # the pump
    mat[k, k] = mat[k + 1, k + 1] = mat[k + 2, k + 2] = mat[k + 3, k + 3] = diag
    mat[k:k + 2, k + 2:k + 4] = upper
    mat[k + 2:k + 4, k:k + 2] = lower
    return mat


def _squeeze_block(sh: float, phi: float):
    # sh times reflection_phase_matrix(phi)
    a, b = sh * np.cos(phi), sh * np.sin(phi)
    return ((a, b), (b, -a))


def _mixing_blocks(s: float, phi: float):
    # s times rotation_matrix(phi), and -s times its transpose
    a, b = s * np.cos(phi), s * np.sin(phi)
    return ((a, b), (-b, a)), ((-a, b), (-b, -a))


def pumped_two_mode_squeezer(r: float, squeeze_phase: float = 0.0) -> SymplecticOp:
    """Two-mode squeezer populating the side modes; identity on the pump.

    Args:
        r: squeezing parameter (signed; the inverse element is r -> -r).
        squeeze_phase: squeezing phase, radians.
    """
    block = _squeeze_block(np.sinh(r), squeeze_phase)
    return SymplecticOp(3, _side_pair(3, np.cosh(r), block, block))


def tritter(theta: float, phase: float = 0.0) -> SymplecticOp:
    """Three-way beam splitter mixing the pump with both side modes.

    The pump couples to the symmetric combination of the side modes with
    mixing angle ``theta``; theta = 0 is the identity.  Note this differs from
    a two-way beam splitter: theta = pi/2 does not fully swap pump and sides.
    """
    c, s = np.cos(theta), np.sin(theta)
    sv, cv = np.sin(phase), np.cos(phase)
    f = s / np.sqrt(2.0)
    cc = np.cos(theta / 2.0) ** 2
    mm = 0.5 * (c - 1.0)
    mat = np.array([
        [c, 0.0, f * sv, f * cv, f * sv, f * cv],
        [0.0, c, -f * cv, f * sv, -f * cv, f * sv],
        [-f * sv, f * cv, cc, 0.0, mm, 0.0],
        [-f * cv, -f * sv, 0.0, cc, 0.0, mm],
        [-f * sv, f * cv, mm, 0.0, cc, 0.0],
        [-f * cv, -f * sv, 0.0, mm, 0.0, cc],
    ])
    return SymplecticOp(3, mat)


def tritter_from_generator(theta: float, phase: float = 0.0) -> SymplecticOp:
    """Tritter built by exponentiating its quadratic Hamiltonian generator.

    Independent cross-check for :func:`tritter`: the coupling Hamiltonian
    (pump)-(side sum) is written as a quadratic form (1/2) x^T M x in the q,p
    basis and the flow S = exp(2 theta Omega M) is evaluated with a
    scaling-and-squaring matrix exponential.
    """
    # H/(hbar G) = (1/(2 sqrt 2)) sum_j [cos(phase)(q0 qj + p0 pj)
    #                                    - sin(phase)(q0 pj - p0 qj)],  j = 1, 2
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
    block = _squeeze_block(np.sinh(s), phase)
    return SymplecticOp(2, _side_pair(2, np.cosh(s), block, block))


def mode_mixing_channel(m: float, phase: float = 0.0) -> SymplecticOp:
    """Mode-mixing channel (generalized beam splitter) on the side modes (4x4).

    Passive: orthogonal as well as symplectic, so it preserves total particle
    number.
    """
    upper, lower = _mixing_blocks(np.sin(m), phase)
    return SymplecticOp(2, _side_pair(2, np.cos(m), upper, lower))


def phase_channel(phi: float) -> SymplecticOp:
    """Phase evolution exp(-i phi N/2) of the side modes; identity on the pump (6x6)."""
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    mat = np.zeros((6, 6))
    mat[0, 0] = mat[1, 1] = 1.0
    mat[2, 2] = mat[3, 3] = mat[4, 4] = mat[5, 5] = c
    mat[2, 3] = mat[4, 5] = s
    mat[3, 2] = mat[5, 4] = -s
    return SymplecticOp(3, mat)


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
    mat = _side_pair(2, 1.0 + 0.5 * s_nm ** 2, block, block)
    # truncation breaks symplecticity at O(s^4); widen the constructor tolerance
    return SymplecticOp(2, mat, tol=max(1e-10, 2.0 * s_nm ** 4))


def gw_mode_mixing_channel(s_nm: float, phase: float = 0.0, form: str = "exact") -> SymplecticOp:
    """Resonant gravitational-wave mode-mixing channel on two phonon modes."""
    if form == "exact":
        return mode_mixing_channel(s_nm, phase)
    if form != "second_order":
        raise ValueError(f"unknown form {form!r}")
    upper, lower = _mixing_blocks(s_nm, phase)
    mat = _side_pair(2, 1.0 - 0.5 * s_nm ** 2, upper, lower)
    return SymplecticOp(2, mat, tol=max(1e-10, 2.0 * s_nm ** 4))


def embed_on_side_modes(op: SymplecticOp) -> SymplecticOp:
    """Lift a two-mode side-channel into the three-mode space: I_2 (+) S."""
    if op.n_modes != 2:
        raise ValueError(f"expected a two-mode operation, got {op.n_modes} modes")
    if not check_symplectic(op.matrix):
        raise ValueError("refusing to embed a non-symplectic operation")
    mat = np.eye(6)
    mat[2:, 2:] = op.matrix
    return SymplecticOp(3, mat, tol=op.tol)


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
        if not np.all(np.isfinite([self.strength, self.phase, self.epsilon])):
            raise ValueError(f"channel parameters must be finite, got {self}")
        if self.strength < 0:
            raise ValueError(f"strength constant must be nonnegative, got {self.strength}")

    def channel_argument(self, epsilon: float | None = None) -> float:
        eps = self.epsilon if epsilon is None else epsilon
        if self.kind == "phase":
            return eps * self.strength
        return 0.25 * eps * self.strength

    def symplectic(self, epsilon: float | None = None) -> SymplecticOp:
        """The channel's symplectic matrix at the given strain (native size)."""
        arg = self.channel_argument(epsilon)
        if self.kind == "squeezing":
            return squeezing_channel(arg, self.phase)
        if self.kind == "mode_mixing":
            return mode_mixing_channel(arg, self.phase)
        return phase_channel(arg)

    def three_mode(self, epsilon: float | None = None) -> SymplecticOp:
        """The channel lifted into the three-mode pipeline (identity on the pump)."""
        op = self.symplectic(epsilon)
        return op if op.n_modes == 3 else embed_on_side_modes(op)

    def generator(self) -> np.ndarray:
        """The 6x6 strain generator K, zero on the pump: three_mode(eps) = expm(eps K)."""
        K = np.zeros((6, 6))
        if self.kind == "phase":
            K[2:4, 2:4] = K[4:6, 4:6] = 0.5 * self.strength * symplectic_form(1)
        elif self.kind == "squeezing":
            K[2:4, 4:6] = K[4:6, 2:4] = 0.25 * self.strength * reflection_phase_matrix(self.phase)
        else:
            R = 0.25 * self.strength * rotation_matrix(self.phase)
            K[2:4, 4:6], K[4:6, 2:4] = R, -R.T
        return K
