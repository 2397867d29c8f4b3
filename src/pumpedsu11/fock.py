"""Truncated-Fock-space brute force, used as an independent referee.

Everything here is deliberately desk-scale: dense state vectors over a
truncated Fock basis and sparse quadratic generators, stored by diagonals and
built from the basis occupation numbers.  A displacement, two-mode squeezer or
mode mixer acts on the state as the exact exponential of its truncated
generator on its own modes, one small unitary per block of a conserved number,
its phases e^{i arg(w) n} made as the tritter's D (:func:`_gauge_phases`);
a phase rotation is a diagonal phase; only the tritter, which couples all
three modes, goes through a Chebyshev-Bessel series (:func:`expm_multiply`).
None of it shares code with the Gaussian formalism it validates.

The tritter's generator is K = -i g D S D^dag (the gauge identity), with
g = theta / sqrt 2, D = diag(e^{i phase n_0}) and S = T + T^T real and
symmetric for T = a_0^dag (a_1 + a_2): every term of T raises n_0 by one, so
D T D^dag = e^{i phase} T.  So exp(K) psi = D exp(-i g S) D^dag psi, and the
series runs in real arithmetic, once on the real and once on the imaginary
part of D^dag psi.

The blocks and the eigensystems of their coefficient-free hopping matrices
depend on the operation kind and the cutoff alone, so they are cached, keyed
by (kind, cutoff), read-only, at most 32 entries (:func:`_block_eigensystems`);
each operation forms its unitaries from them.  A mixer's entry holds about
(2/3) cutoff^3 floats: 0.37 MB at the three-mode limit, cutoff 40, and 86 MB
at the two-mode limit, cutoff 252.  A squeezer's blocks of n_i - n_j = d and
-d share one eigensystem, so its entry is half that: 0.20 MB and 44 MB.  No
entry exceeds 86 MB, so the cache stays below 32 x 86 MB = 2.8 GB.  The
tritter's S, pre-scaled by 2/rho with rho its Gershgorin bound, is cached
likewise, keyed by the cutoff alone, read-only, at most 8 entries
(:func:`_tritter_hopping`): its four diagonals are 4 cutoff^3 floats, 2.0 MB
at cutoff 40, the largest a three-mode space allows, so below 16 MB in all.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import dia_matvec
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
    order T walks them, and S = V[b] diag(lam[b]) V[b]^T on that block.  Where
    every block of a size has the same S, lam and V hold it once, for all of
    them: a squeezer's blocks of n_i - n_j = d and -d both carry the
    amplitudes sqrt((k + 1)(k + |d| + 1)).
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
        if (S == S[:1]).all():
            S = S[:1]
        lam, V = np.linalg.eigh(S)
        for array in (index, lam, V):
            array.flags.writeable = False
        entries.append((index, lam, V))
    return tuple(entries)


# 8 entries hold the tritter's matrix at eight cutoffs; entry sizes are in the module docstring
@functools.lru_cache(maxsize=8)
def _tritter_hopping(cutoff: int) -> tuple:
    """((2/rho) S, rho) for the tritter's real hopping matrix S at ``cutoff``.

    S = T + T^T with T = a_0^dag (a_1 + a_2) on the three-mode space, and rho
    is S's Gershgorin bound, its largest absolute row sum.  The tritter's
    generator is S up to its amplitude and phase (:func:`_propagate`), so S
    depends on the cutoff alone.  The matrix is held by its four diagonals,
    read-only.
    """
    _, monomials = _generator_terms(Tritter(1.0))
    S = _ladder_matrix(_occupation(cutoff, 3), cutoff, 1.0, monomials, 1.0)
    rho = float(np.max(abs(S).sum(axis=1)))
    S.data *= 2.0 / rho
    for array in (S.data, S.offsets):
        array.flags.writeable = False
    return S, rho


def _apply_local(psi: np.ndarray, op, cutoff: int, n_modes: int) -> np.ndarray:
    """exp(K) psi for a one- or two-mode operation, by its block unitaries.

    On each block exp(K) = D V e^{-i|w| lambda} V^T D^dag, with the cached
    (index, lambda, V) of :func:`_block_eigensystems` and D = diag(e^{i arg(w) n})
    from :func:`_gauge_phases`; a U that all blocks of a size share is built
    once and broadcast over them.
    """
    coeff, _ = _generator_terms(op)
    modes = (op.mode,) if isinstance(op, Displace) else op.modes
    w = 1j * coeff
    phase = _gauge_phases(np.angle(w), cutoff)
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


def _bessel_coefficients(R: float) -> np.ndarray:
    """(2 - delta_k0) J_k(R) for k = 0..n-1, n the first order whose tail is below SERIES_TAIL.

    Each T_k has norm at most 1 on [-1, 1], so stopping there bounds the
    series' error by SERIES_TAIL ||psi|| before any work is done.  At least
    two terms are returned.
    """
    # |J_k(R)| <= (eR/2k)^k, so the orders past these are far below SERIES_TAIL
    coeffs = jv(np.arange(int(1.5 * R) + 60), R)
    coeffs[1:] *= 2.0
    # tail[n] bounds the remainder after the terms 0..n
    tail = np.cumsum(np.abs(coeffs[:0:-1]))[::-1]
    return coeffs[:max(int(np.argmax(tail <= SERIES_TAIL)) + 1, 2)]


def _chebyshev_sums(hopping: sparse.dia_matrix, b: np.ndarray, x: np.ndarray) -> tuple:
    """(sum over even k, sum over odd k) of b_k T_k(S/rho) x, for a real x it overwrites.

    ``hopping`` is (2/rho) S, so T_{k+1} x = hopping T_k x - T_{k-1} x.  Two
    buffers rotate: scipy's DIA kernel adds hopping T_k x into the negated
    T_{k-1} x, which ``hopping @`` would do through a fresh zeroed vector.
    """
    offsets, data = hopping.offsets, hopping.data
    dim = len(x)
    cur = hopping @ x
    cur *= 0.5
    sums = [b[0] * x, b[1] * cur]
    scratch, prev = np.empty_like(x), x
    for k in range(2, len(b)):
        np.negative(prev, out=prev)
        dia_matvec(dim, dim, len(offsets), data.shape[1], offsets, data, cur, prev)
        np.multiply(prev, b[k], out=scratch)
        sums[k % 2] += scratch
        prev, cur = cur, prev
    return sums


def expm_multiply(t: float, psi: np.ndarray, cutoff: int) -> np.ndarray:
    """exp(-i t S) psi by a Chebyshev-Bessel series, S the tritter's hopping matrix at ``cutoff``.

    S is real and symmetric with a zero diagonal, so Gershgorin's discs put
    the spectrum of t S in [-R, R] with R = |t| rho (:func:`_tritter_hopping`),
    and there (Jacobi-Anger)

        exp(-i t S) = sum_k (2 - delta_k0) (-i sgn t)^k J_k(R) T_k(S / rho),

    with T_k(-x) = (-1)^k T_k(x) giving the sign.  The series stops at the
    first n with 2 sum_{j>n} |J_j(R)| <= SERIES_TAIL, which bounds its error
    by SERIES_TAIL ||psi|| before any work is done (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967 (1984)).  T_k(S / rho) is real, so the
    three-term recurrence runs in real arithmetic, once on Re psi and once on
    Im psi, and (-i sgn t)^k is folded into the coefficients: it is real for
    even k and imaginary for odd k, so the even and the odd terms are summed
    apart and combined once at the end.
    """
    hopping, rho = _tritter_hopping(cutoff)
    R = abs(t) * rho
    if R == 0.0:
        return psi.copy()
    b = _bessel_coefficients(R)
    k = np.arange(len(b))
    # (-i sgn t)^k is (-1)^(k/2) for even k and i (-sgn t) (-1)^((k-1)/2) for odd k
    b *= np.where(k % 2, -np.sign(t), 1.0) * (-1.0) ** (k // 2)
    # fresh contiguous float64 copies, as the DIA kernel writes into them in place
    (even_re, odd_re), (even_im, odd_im) = (_chebyshev_sums(hopping, b, np.array(part, float))
                                            for part in (psi.real, psi.imag))
    out = np.empty(len(psi), dtype=complex)
    out.real = even_re - odd_im
    out.imag = even_im + odd_re
    return out


def _gauge_phases(phase: float, cutoff: int) -> np.ndarray:
    """e^{i phase n} for n = 0..cutoff-1: the tritter's D by its mode-0
    occupation, and the block phases of :func:`_apply_local`.

    The powers of e^{i phase} come by repeated products: exp(i phase n)
    would round phase n, which is off by up to 1e-13 at |phase| = 50.
    """
    u = np.full(cutoff, cmath.exp(1j * phase))
    u[0] = 1.0
    return np.cumprod(u)


def _propagate(space: FockSpace, op, psi: np.ndarray) -> np.ndarray:
    """exp(K) psi for one operation: local block unitaries, a diagonal phase, or the series.

    A tritter applies D exp(-i g S) D^dag psi, by the gauge identity of the
    module docstring.
    """
    if isinstance(op, (Displace, TwoModeSqueeze, ModeMix)):
        return _apply_local(psi, op, space.cutoff, space.n_modes)
    if isinstance(op, Tritter):
        if space.n_modes != 3:
            raise ValueError("tritter requires a three-mode space")
        # mode 0 varies slowest, so D scales the rows of psi shaped (n_0, rest)
        d = _gauge_phases(op.phase, space.cutoff)[:, None]
        psi = (d.conj() * psi.reshape(space.cutoff, -1)).reshape(-1)
        psi = expm_multiply(op.theta / np.sqrt(2.0), psi, space.cutoff)
        return (d * psi.reshape(space.cutoff, -1)).reshape(-1)
    return np.exp(_antihermitian_generator(space, op).diagonal()) * psi


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
    """Hermitian G of the channel U(eps) = exp(-i eps G): i K of its operation at eps = 1."""
    if kind == "squeezing":
        op = TwoModeSqueeze(modes, strength / 4, phase)
    elif kind == "mode_mixing":
        op = ModeMix(modes, strength / 4, phase)
    elif kind == "phase":
        op = PhaseRotate(modes, strength)
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    return 1j * _antihermitian_generator(space, op)


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
