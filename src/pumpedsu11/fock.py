"""Truncated-Fock-space brute force, used as an independent referee.

Everything here is deliberately desk-scale: dense state vectors over a
truncated Fock basis and sparse quadratic generators, stored by diagonals and
built from the basis occupation numbers.  A displacement, two-mode squeezer or
mode mixer acts on the state as the exact exponential of its truncated
generator on its own modes, one small unitary per block of a conserved number;
a phase rotation is a diagonal phase; only the tritter, which couples all
three modes, goes through a Chebyshev-Bessel series (:func:`expm_multiply`).
None of it shares code with the Gaussian formalism it validates.

The blocks and the eigensystems of their coefficient-free hopping matrices
depend on the operation kind and the cutoff alone, so they are cached, keyed
by (kind, cutoff), read-only, at most 32 entries (:func:`_block_eigensystems`);
each operation forms its unitaries from them.  A two-mode kind's entry holds
about (2/3) cutoff^3 floats: 0.37 MB at the three-mode limit, cutoff 40, and
86 MB for the largest, a squeezer or mixer at the two-mode limit, cutoff 252.
"""

from __future__ import annotations

import cmath
import functools
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
    """A truncated n-mode bosonic Fock space: its size guards and basis occupations."""

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

    Basis indices are lexicographic in the occupation tuple: mode 0 varies
    slowest, as in a Kronecker product of single-mode factors.
    """
    return np.indices((cutoff,) * n_modes).reshape(n_modes, -1).astype(float)


def _distinct_pair(modes: tuple[int, int]) -> None:
    if modes[0] == modes[1]:
        raise ValueError(f"a two-mode operation needs two distinct modes, got {modes}")


def _finite(op, *fields) -> None:
    for name in fields:
        value = getattr(op, name)
        if not cmath.isfinite(value):
            raise ValueError(f"{type(op).__name__}.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Displace:
    mode: int
    alpha: complex

    def __post_init__(self):
        _finite(self, "alpha")


@dataclass(frozen=True)
class TwoModeSqueeze:
    modes: tuple[int, int]
    r: float
    phase: float = 0.0

    def __post_init__(self):
        _distinct_pair(self.modes)
        _finite(self, "r", "phase")


@dataclass(frozen=True)
class ModeMix:
    modes: tuple[int, int]
    m: float
    phase: float = 0.0

    def __post_init__(self):
        _distinct_pair(self.modes)
        _finite(self, "m", "phase")


@dataclass(frozen=True)
class Tritter:
    theta: float
    phase: float = 0.0

    def __post_init__(self):
        _finite(self, "theta", "phase")


@dataclass(frozen=True)
class PhaseRotate:
    modes: tuple[int, ...]
    phi: float

    def __post_init__(self):
        _finite(self, "phi")


def _ladder_amplitudes(occupation: np.ndarray, cutoff: int, monomials) -> dict:
    """T, a sum of normal-ordered monomials, as {index shift: amplitude by source state}.

    A monomial ``(raised, lowered)`` is prod a_m^dag over ``raised`` times
    prod a_m over ``lowered``, with each a_m the truncated ladder operator of
    mode m on the basis that ``occupation`` lists.  T takes basis state s to
    s + shift with the products of the ladder operators' sqrt(n) factors, as a
    product of the truncated matrices gives them; the amplitude is zero where
    T leaves the truncated space.
    """
    n_modes, dim = occupation.shape
    strides = cutoff ** np.arange(n_modes - 1, -1, -1)
    by_shift = {}
    for raised, lowered in monomials:
        n = {m: occupation[m] for m in (*raised, *lowered)}
        amp = np.ones(dim)
        inside = np.ones(dim, dtype=bool)
        shift = 0
        for m in lowered:
            amp *= np.sqrt(n[m])
            n[m] = n[m] - 1.0
            inside &= n[m] >= 0
            shift -= int(strides[m])
        for m in raised:
            n[m] = n[m] + 1.0
            amp *= np.sqrt(n[m])
            inside &= n[m] < cutoff
            shift += int(strides[m])
        amp[~inside] = 0.0
        by_shift[shift] = by_shift.get(shift, 0.0) + amp
    return by_shift


def _ladder_matrix(occupation: np.ndarray, cutoff: int, coeff: complex, monomials,
                   sign: float) -> sparse.dia_matrix:
    """coeff T + sign conj(coeff) T^dag by diagonals, with T the sum of ``monomials``.

    ``sign`` is +1 for a Hermitian and -1 for an anti-Hermitian result.  A
    diagonal T (number operators) enters twice, so its coefficient is halved.
    """
    dim = occupation.shape[1]
    diagonals = {}  # offset (column - row) -> entries by column, as the DIA format holds them
    for shift, amp in _ladder_amplitudes(occupation, cutoff, monomials).items():
        # T[s + shift, s] = amp[s] and T^dag[c - shift, c] = amp[c - shift]; the
        # entries np.roll wraps round are zero, since T takes those states out
        for offset, values in ((-shift, coeff * amp),
                               (shift, (sign * np.conj(coeff)) * np.roll(amp, shift))):
            diagonals[offset] = diagonals.get(offset, 0.0) + values
    # ascending offsets make a product sum each row in column order, as CSR does
    offsets = sorted(diagonals)
    data = np.array([diagonals[k] for k in offsets])
    return sparse.dia_matrix((data, offsets), shape=(dim, dim))


def _generator_terms(op):
    """(coeff, monomials) with the operation's generator K = coeff T - conj(coeff) T^dag."""
    if isinstance(op, Displace):
        return op.alpha, [((op.mode,), ())]
    if isinstance(op, TwoModeSqueeze):
        return op.r * np.exp(1j * op.phase), [(op.modes, ())]
    if isinstance(op, ModeMix):
        # phase convention matched to the mode-mixing symplectic matrix:
        # exp(m (e^{-i phase} a_i^dag a_j - e^{i phase} a_i a_j^dag))
        i, j = op.modes
        return op.m * np.exp(-1j * op.phase), [((i,), (j,))]
    if isinstance(op, Tritter):
        # K = -i theta (e^{i phase} a_0^dag (a_1 + a_2) + h.c.) / sqrt(2)
        return (-1j * op.theta * np.exp(1j * op.phase) / np.sqrt(2.0),
                [((0,), (1,)), ((0,), (2,))])
    if isinstance(op, PhaseRotate):
        return -0.25j * op.phi, [((m,), (m,)) for m in op.modes]
    raise TypeError(f"unknown preparation operation {op!r}")


def _antihermitian_generator(space: FockSpace, op) -> sparse.dia_matrix:
    """K such that the operation's unitary is exp(K)."""
    if isinstance(op, Tritter) and space.n_modes != 3:
        raise ValueError("tritter requires a three-mode space")
    coeff, monomials = _generator_terms(op)
    return _ladder_matrix(space.occupation, space.cutoff, coeff, monomials, -1.0)


# 32 entries hold the three kinds at ten cutoffs; entry sizes are in the module docstring
@functools.lru_cache(maxsize=32)
def _block_eigensystems(kind: type, cutoff: int) -> tuple:
    """The cutoff-only part of a Displace's, TwoModeSqueeze's or ModeMix's exp(K).

    K restricted to the operation's modes conserves a number (none for a
    displacement, n_i - n_j for squeezing, n_i + n_j for mixing), so it splits
    into blocks of at most ``cutoff`` states.  In each block T moves every
    state to the next one, and iK = |w| D S D^dag with w = i coeff,
    S = T + T^T real, and D = diag(e^{i p arg w}) over the block positions p.
    S depends on the operation kind and the cutoff alone, never on its
    amplitude, phase or modes.

    Returns one read-only (index, lam, V) per block size n, from one stacked
    ``eigh`` per size: index[b] lists block b's local basis states in the
    order T walks them, and S = V diag(lam) V^T on that block.
    """
    unit = kind(0, 1.0) if kind is Displace else kind((0, 1), 1.0)
    _, monomials = _generator_terms(unit)
    occupation = _occupation(cutoff, 1 if kind is Displace else 2)
    [amp] = _ladder_amplitudes(occupation, cutoff, monomials).values()
    if kind is Displace:
        conserved = np.zeros(cutoff)
    elif kind is TwoModeSqueeze:
        conserved = occupation[0] - occupation[1]
    else:
        conserved = occupation[0] + occupation[1]
    # a stable sort keeps each block in basis order, which is the order T walks it
    order = np.argsort(conserved, kind="stable")
    _, start, sizes = np.unique(conserved[order], return_index=True, return_counts=True)
    entries = []
    for n in np.unique(sizes):
        starts = start[sizes == n]
        index = order[starts[:, None] + np.arange(n)]
        # T takes the state at position p to position p + 1 with amplitude amp
        p = np.arange(n - 1)
        S = np.zeros((len(starts), n, n))
        S[:, p + 1, p] = S[:, p, p + 1] = amp[index[:, :-1]]
        lam, V = np.linalg.eigh(S)
        for array in (index, lam, V):
            array.flags.writeable = False
        entries.append((index, lam, V))
    return tuple(entries)


def _apply_local(psi: np.ndarray, op, cutoff: int, n_modes: int) -> np.ndarray:
    """exp(K) psi for a one- or two-mode operation, by its block unitaries.

    On each block exp(K) = D V e^{-i|w| lambda} V^T D^dag, with the cached
    (index, lambda, V) of :func:`_block_eigensystems`.
    """
    coeff, _ = _generator_terms(op)
    modes = (op.mode,) if isinstance(op, Displace) else op.modes
    w = 1j * coeff
    phase = np.exp(1j * np.angle(w) * np.arange(cutoff))
    axes = tuple(range(len(modes)))
    t = np.moveaxis(psi.reshape((cutoff,) * n_modes), modes, axes)
    shape = t.shape
    t = t.reshape(cutoff ** len(modes), -1)
    out = np.empty_like(t)
    for index, lam, V in _block_eigensystems(type(op), cutoff):
        n = index.shape[1]
        U = (phase[:n, None] * V * np.exp(-1j * abs(w) * lam)[:, None, :]) @ (
            V.transpose(0, 2, 1) * phase[:n].conj())
        out[index] = U @ t[index]
    return np.moveaxis(out.reshape(shape), axes, modes).reshape(-1)


def expm_multiply(K: sparse.spmatrix, psi: np.ndarray) -> np.ndarray:
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


def _propagate(space: FockSpace, op, psi: np.ndarray) -> np.ndarray:
    """exp(K) psi for one operation: local block unitaries, a diagonal phase, or the series."""
    if isinstance(op, (Displace, TwoModeSqueeze, ModeMix)):
        return _apply_local(psi, op, space.cutoff, space.n_modes)
    K = _antihermitian_generator(space, op)
    if isinstance(op, PhaseRotate):
        return np.exp(K.diagonal()) * psi
    return expm_multiply(K, psi)


def prepare_state_fock(ops, cutoff: int, n_modes: int = 2) -> tuple[np.ndarray, float]:
    """Apply a sequence of operations to the Fock vacuum.

    Returns (state, leakage).  Raises LeakageError when more than
    ``LEAKAGE_LIMIT`` of the population reaches the truncation boundary, which
    means the cutoff is too small for the requested parameters.
    """
    space = FockSpace(n_modes, cutoff)
    psi = space.vacuum()
    for op in ops:
        psi = _propagate(space, op, psi)
    leak = space.leakage(psi)
    if not leak < LEAKAGE_LIMIT:  # a NaN leakage fails too
        raise LeakageError(
            f"truncation leakage {leak:.3e} exceeds {LEAKAGE_LIMIT:.1e} at cutoff {cutoff}")
    return psi / np.linalg.norm(psi), leak


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
                      modes: tuple[int, int]) -> sparse.dia_matrix:
    """Hermitian generator G of the channel family U(eps) = exp(-i eps G)."""
    i, j = modes
    if kind == "squeezing":
        coeff, monomials = 0.25j * strength * np.exp(1j * phase), [((i, j), ())]
    elif kind == "mode_mixing":
        coeff, monomials = 0.25j * strength * np.exp(-1j * phase), [((i,), (j,))]
    elif kind == "phase":
        coeff, monomials = 0.25 * strength, [((i,), (i,)), ((j,), (j,))]
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    return _ladder_matrix(space.occupation, space.cutoff, coeff, monomials, 1.0)


def generator_variance(psi: np.ndarray, generator: sparse.spmatrix) -> float:
    """Pure-state quantum Fisher information 4 Var(G) of the channel generator."""
    gp = generator @ psi
    mean = np.vdot(psi, gp).real
    second = np.vdot(gp, gp).real
    value = 4.0 * (second - mean ** 2)
    if value < 0:
        raise FloatingPointError(f"negative generator variance {value!r}")
    return value


def pipeline_state_fock(nbar: float, pump_phase: float, r: float, squeeze_phase: float,
                        theta: float, tritter_phase: float,
                        cutoff: int) -> tuple[np.ndarray, float]:
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
    return prepare_state_fock(ops, cutoff, n_modes=3)
