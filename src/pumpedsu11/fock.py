"""Truncated-Fock-space brute force, used as an independent referee.

Everything here is deliberately desk-scale: dense state vectors over a
truncated Fock basis, sparse quadratic generators, and their exponentials
applied to a state by a Chebyshev-Bessel series (:func:`expm_multiply`).  None
of it shares code with the Gaussian formalism it validates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import jv

__all__ = [
    "LeakageError",
    "FockSpace",
    "Displace",
    "TwoModeSqueeze",
    "ModeMix",
    "Tritter",
    "PhaseRotate",
    "prepare_state_fock",
    "prepare_state_adaptive",
    "number_moments_fock",
    "number_diff_moments_fock",
    "generator_variance",
    "channel_generator",
    "pipeline_state_fock",
]

MAX_DIMENSION = 64000
MIN_CUTOFF = 10
LEAKAGE_LIMIT = 1e-6
# a priori bound on the norm of the Chebyshev series' remainder, relative to the state
SERIES_TAIL = 1e-15


class LeakageError(RuntimeError):
    """Too much population reached the top of the truncated Fock ladder."""


class FockSpace:
    """A truncated n-mode bosonic Fock space with cached mode operators."""

    def __init__(self, n_modes: int, cutoff: int):
        if n_modes not in (2, 3):
            raise ValueError(f"oracle supports 2 or 3 modes, got {n_modes}")
        if cutoff < MIN_CUTOFF:
            raise ValueError(f"cutoff must be at least {MIN_CUTOFF}, got {cutoff}")
        if cutoff ** n_modes > MAX_DIMENSION:
            raise ValueError(
                f"total dimension {cutoff ** n_modes} exceeds the guard {MAX_DIMENSION}")
        self.n_modes = n_modes
        self.cutoff = cutoff
        self.dim = cutoff ** n_modes
        ladder = sparse.diags(np.sqrt(np.arange(1, cutoff)), 1, format="csr")
        eye = sparse.identity(cutoff, format="csr")
        self.a = []
        for mode in range(n_modes):
            factors = [eye] * n_modes
            factors[mode] = ladder
            op = factors[0]
            for f in factors[1:]:
                op = sparse.kron(op, f, format="csr")
            self.a.append(op.astype(complex))
        self.occupation = _occupation(cutoff, n_modes)

    def vacuum(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi

    def leakage(self, psi: np.ndarray) -> float:
        """Probability weight at the top Fock level of any mode, plus lost norm."""
        top = np.zeros(self.dim, dtype=bool)
        for mode in range(self.n_modes):
            top |= self.occupation[mode] == self.cutoff - 1
        lost = abs(1.0 - float(np.vdot(psi, psi).real))
        return float(np.sum(np.abs(psi[top]) ** 2)) + lost


def _occupation(cutoff: int, n_modes: int) -> np.ndarray:
    """Occupation number of each basis state, one row per mode.

    Basis indices are lexicographic in the occupation tuple, the order of the
    Kronecker products that build the mode operators.
    """
    return np.indices((cutoff,) * n_modes).reshape(n_modes, -1).astype(float)


@dataclass(frozen=True)
class Displace:
    mode: int
    alpha: complex


@dataclass(frozen=True)
class TwoModeSqueeze:
    modes: tuple[int, int]
    r: float
    phase: float = 0.0


@dataclass(frozen=True)
class ModeMix:
    modes: tuple[int, int]
    m: float
    phase: float = 0.0


@dataclass(frozen=True)
class Tritter:
    theta: float
    phase: float = 0.0


@dataclass(frozen=True)
class PhaseRotate:
    modes: tuple[int, ...]
    phi: float


def _antihermitian_generator(space: FockSpace, op) -> sparse.csr_matrix:
    """K such that the operation's unitary is exp(K)."""
    a = space.a
    if isinstance(op, Displace):
        ad = a[op.mode].getH()
        return (op.alpha * ad - np.conj(op.alpha) * a[op.mode]).tocsr()
    if isinstance(op, TwoModeSqueeze):
        i, j = op.modes
        z = op.r * np.exp(1j * op.phase)
        pair = a[i].getH() @ a[j].getH()
        return (z * pair - np.conj(z) * pair.getH()).tocsr()
    if isinstance(op, ModeMix):
        # phase convention matched to the mode-mixing symplectic matrix:
        # exp(m (e^{-i phase} a_i^dag a_j - e^{i phase} a_i a_j^dag))
        i, j = op.modes
        hop = np.exp(-1j * op.phase) * (a[i].getH() @ a[j])
        return (op.m * (hop - hop.getH())).tocsr()
    if isinstance(op, Tritter):
        if space.n_modes != 3:
            raise ValueError("tritter requires a three-mode space")
        coupling = np.exp(1j * op.phase) * (a[0].getH() @ (a[1] + a[2]))
        h = (coupling + coupling.getH()) / np.sqrt(2.0)
        return (-1j * op.theta * h).tocsr()
    if isinstance(op, PhaseRotate):
        num = sum(a[m].getH() @ a[m] for m in op.modes)
        return (-0.5j * op.phi * num).tocsr()
    raise TypeError(f"unknown preparation operation {op!r}")


def expm_multiply(K: sparse.csr_matrix, psi: np.ndarray) -> np.ndarray:
    """exp(K) psi for an anti-Hermitian sparse K, by a Chebyshev-Bessel series.

    With H = iK Hermitian, exp(K) = exp(-iH).  Gershgorin's discs put the
    spectrum of H in [c - R, c + R], and there (Jacobi-Anger)

        exp(-iH) = e^{-ic} sum_k (2 - delta_k0) (-i)^k J_k(R) T_k((H - c)/R).

    Each T_k has norm at most 1 on that interval, so stopping at the first n
    with 2 sum_{j>n} |J_j(R)| <= SERIES_TAIL bounds the error by
    SERIES_TAIL ||psi|| before any work is done (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)).  The three-term recurrence runs on
    chi_k = (-i)^k T_k((H - c)/R) psi, that is
    chi_{k+1} = (2/R)(K + ic) chi_k + chi_{k-1}, which leaves real
    coefficients and scales vectors, never a copy of K.
    """
    diagonal = K.diagonal()
    h_diag = (1j * diagonal).real
    radii = np.asarray(abs(K).sum(axis=1)).ravel() - np.abs(diagonal)
    lo, hi = np.min(h_diag - radii), np.max(h_diag + radii)
    c, R = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if R == 0.0:
        return np.exp(-1j * c) * psi
    # |J_k(R)| <= (eR/2k)^k, so the orders past these are far below SERIES_TAIL
    coeffs = jv(np.arange(int(1.5 * R) + 60), R)
    coeffs[1:] *= 2.0
    # tail[n] bounds the remainder after the terms 0..n
    tail = np.cumsum(np.abs(coeffs[:0:-1]))[::-1]
    n_terms = int(np.argmax(tail <= SERIES_TAIL)) + 1
    scale, shift = 2.0 / R, 2j * c / R
    chi_prev = psi
    chi = K @ psi
    if c:
        chi += 1j * c * psi
    chi *= 1.0 / R
    out = coeffs[0] * psi + coeffs[1] * chi
    for coeff in coeffs[2:n_terms]:
        chi_next = K @ chi
        chi_next *= scale
        if c:
            chi_next += shift * chi
        chi_next += chi_prev
        out += coeff * chi_next
        chi_prev, chi = chi, chi_next
    if c:
        out *= np.exp(-1j * c)
    return out


def prepare_state_fock(ops, cutoff: int, n_modes: int = 2,
                       leakage_limit: float = LEAKAGE_LIMIT) -> tuple[np.ndarray, float]:
    """Apply a sequence of operations to the Fock vacuum.

    Returns (state, leakage).  Raises LeakageError when more than
    ``leakage_limit`` of the population reaches the truncation boundary, which
    means the cutoff is too small for the requested parameters.
    """
    space = FockSpace(n_modes, cutoff)
    psi = space.vacuum()
    for op in ops:
        psi = expm_multiply(_antihermitian_generator(space, op), psi)
    leak = space.leakage(psi)
    if leak >= leakage_limit:
        raise LeakageError(
            f"truncation leakage {leak:.3e} exceeds {leakage_limit:.1e} at cutoff {cutoff}")
    return psi / np.linalg.norm(psi), leak


def _restrict_to_cutoff(psi_big: np.ndarray, big: int, small: int,
                        n_modes: int) -> np.ndarray:
    """Project a state onto the basis states with all occupations below ``small``.

    Basis indices are lexicographic in the occupation tuple at either cutoff,
    so the masked entries line up with the smaller space's layout.
    """
    mask = np.all(_occupation(big, n_modes) < small, axis=0)
    return psi_big[mask]


def prepare_state_adaptive(ops, n_modes: int = 2, start_cutoff: int = MIN_CUTOFF,
                           leakage_limit: float = LEAKAGE_LIMIT,
                           step: int = 5) -> tuple[np.ndarray, float, int]:
    """Prepare a state, growing the cutoff until the result has converged.

    A truncated anti-Hermitian generator always exponentiates to something
    unitary, so a small top-level occupancy alone does not prove the cutoff
    was large enough.  This climbs the cutoff until two consecutive
    preparations agree in fidelity (and pass the leakage bound), and raises
    LeakageError if the dimension guard is reached first.

    Returns (state, leakage, cutoff) at the larger of the two agreeing cutoffs.
    """
    cutoff = max(start_cutoff, MIN_CUTOFF)
    previous = None  # (psi, cutoff) of the last leakage-passing preparation
    while True:
        try:
            psi, leak = prepare_state_fock(ops, cutoff, n_modes, leakage_limit)
        except LeakageError:
            psi = None
            previous = None
        if psi is not None:
            if previous is not None:
                prev_psi, prev_cutoff = previous
                overlap = abs(np.vdot(
                    prev_psi, _restrict_to_cutoff(psi, cutoff, prev_cutoff, n_modes))) ** 2
                if overlap >= 1.0 - max(leakage_limit, 1e-9):
                    return psi, leak, cutoff
            previous = (psi, cutoff)
        bigger = cutoff + step
        if bigger ** n_modes > MAX_DIMENSION:
            raise LeakageError(
                f"preparation did not converge within the dimension guard "
                f"(last cutoff {cutoff}, guard {MAX_DIMENSION})")
        cutoff = bigger


def _diagonal_moments(psi: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    prob = np.abs(psi) ** 2
    mean = float(weights @ prob)
    second = float((weights ** 2) @ prob)
    return mean, second - mean ** 2


def number_moments_fock(psi: np.ndarray, cutoff: int, n_modes: int,
                        modes=None) -> tuple[float, float]:
    """Mean and variance of the particle-number sum over ``modes``."""
    occupation = _occupation(cutoff, n_modes)
    if modes is None:
        modes = range(n_modes)
    weights = sum(occupation[m] for m in modes)
    return _diagonal_moments(psi, weights)


def number_diff_moments_fock(psi: np.ndarray, cutoff: int, n_modes: int,
                             modes: tuple[int, int]) -> tuple[float, float]:
    """Mean and variance of the particle-number difference (heterodyne signal)."""
    occupation = _occupation(cutoff, n_modes)
    weights = occupation[modes[0]] - occupation[modes[1]]
    return _diagonal_moments(psi, weights)


def channel_generator(space: FockSpace, kind: str, strength: float, phase: float,
                      modes: tuple[int, int]) -> sparse.csr_matrix:
    """Hermitian generator G of the channel family U(eps) = exp(-i eps G)."""
    a = space.a
    i, j = modes
    if kind == "squeezing":
        pair = np.exp(1j * phase) * (a[i].getH() @ a[j].getH())
        return (0.25j * strength * (pair - pair.getH())).tocsr()
    if kind == "mode_mixing":
        hop = np.exp(-1j * phase) * (a[i].getH() @ a[j])
        return (0.25j * strength * (hop - hop.getH())).tocsr()
    if kind == "phase":
        num = a[i].getH() @ a[i] + a[j].getH() @ a[j]
        return (0.5 * strength * num).tocsr()
    raise ValueError(f"unknown channel kind {kind!r}")


def generator_variance(psi: np.ndarray, generator: sparse.csr_matrix) -> float:
    """Pure-state quantum Fisher information 4 Var(G) of the channel generator."""
    gp = generator @ psi
    mean = np.vdot(psi, gp).real
    second = np.vdot(gp, gp).real
    value = 4.0 * (second - mean ** 2)
    if value < 0:
        raise FloatingPointError(f"negative generator variance {value!r}")
    return value


def pipeline_state_fock(nbar: float, pump_phase: float, r: float, squeeze_phase: float,
                        theta: float, tritter_phase: float, cutoff: int,
                        leakage_limit: float = LEAKAGE_LIMIT) -> tuple[np.ndarray, float]:
    """Fock-space twin of the Gaussian pre-channel pipeline state.

    Squeezes the side modes, displaces the pump by the depleted amplitude
    sqrt(nbar - 2 sinh^2 r), then applies the tritter.
    """
    n0 = nbar - 2.0 * np.sinh(r) ** 2
    if n0 <= 0:
        raise ValueError("pump depleted; reduce r or raise nbar")
    alpha0 = np.sqrt(n0) * np.exp(1j * pump_phase)
    ops = [
        TwoModeSqueeze((1, 2), r, squeeze_phase),
        Displace(0, alpha0),
        Tritter(theta, tritter_phase),
    ]
    return prepare_state_fock(ops, cutoff, n_modes=3, leakage_limit=leakage_limit)
