"""Gaussian states and symplectic operations in the real q,p representation.

Quadrature convention: x = (q_1, p_1, ..., q_n, p_n) with q = a + a^dag and
p = i(a^dag - a), so the vacuum covariance matrix is the identity (not 1/2)
and <a^dag a> = (sigma_qq + sigma_pp + d_q^2 + d_p^2)/4 - 1/2 per mode.

``symplectic_form(n)`` is built once per mode count and then returned as the
same read-only array on every call, since the residual check of every
``SymplecticOp`` reads it.  Sharing it is safe because no caller can write to
it; states and operations likewise store their arrays read-only, so they
can be shared without a copy.  The residual is measured relative to the
matrix's scale (see :func:`_symplectic_residual`), so a strongly squeezing
element, symplectic by construction, passes the same tolerance as a passive
one.

These objects are the public state API (the object pipeline, the demos and
``validation``).  The metrology kernel uses only the exact symplectic
inverse and the pump displacement from here: it works in the input frame on
stacks of element matrices and forms no ``GaussianState`` and no residual.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

__all__ = [
    "SYMPLECTIC_TOL",
    "GaussianState",
    "SymplecticOp",
    "symplectic_form",
    "check_symplectic",
    "vacuum_state",
    "pumped_input_state",
    "apply_symplectic",
    "reduce_to_modes",
    "purity",
    "number_mean",
]

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
SYMPLECTIC_TOL = 1e-10


_OMEGAS: dict = {}


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega in q,p ordering: 2x2 blocks [[0, 1], [-1, 0]].

    Returns one cached read-only array per mode count.
    """
    omega = _OMEGAS.get(n_modes)
    if omega is None:
        omega = _OMEGAS[n_modes] = _frozen(
            np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]])))
    return omega


@dataclass(frozen=True)
class GaussianState:
    """An n-mode Gaussian state: displacement vector ``d`` and covariance ``sigma``.

    Both arrays are dimensionless (vacuum sigma is the identity). Instances are
    immutable; every operation returns a new state, so values can be shared
    freely across threads.
    """

    n_modes: int
    d: np.ndarray
    sigma: np.ndarray
    _derived: InitVar[bool] = False

    def __post_init__(self, _derived):
        if self.n_modes < 1:
            raise ValueError(f"need at least one mode, got {self.n_modes}")
        d = np.asarray(self.d, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        dim = 2 * self.n_modes
        if d.shape != (dim,):
            raise ValueError(f"displacement shape {d.shape}, expected ({dim},)")
        if sigma.shape != (dim, dim):
            raise ValueError(f"covariance shape {sigma.shape}, expected ({dim}, {dim})")
        # apply_symplectic and reduce_to_modes keep a checked state finite and
        # physical, and the recomputed det of a strongly squeezed state they
        # derive is mostly roundoff, so derived states skip both tests
        if not _derived and not (np.isfinite(d).all() and np.isfinite(sigma).all()):
            raise ValueError("displacement and covariance must be finite")
        asym = np.abs(sigma - sigma.T).max()
        if asym >= SYMMETRY_TOL:
            raise ValueError(f"covariance not symmetric (max asymmetry {asym:.3e})")
        if not _derived:
            det = np.linalg.det(sigma)
            if not det >= 1.0 - PHYSICALITY_TOL:
                raise ValueError(f"unphysical covariance: det(sigma) = {det!r} < 1")
        object.__setattr__(self, "d", _frozen(d))
        object.__setattr__(self, "sigma", _frozen(sigma))


@dataclass(frozen=True)
class SymplecticOp:
    """A real 2n x 2n symplectic matrix; the phase-space action of a Gaussian unitary."""

    n_modes: int
    matrix: np.ndarray
    tol: float = SYMPLECTIC_TOL

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        dim = 2 * self.n_modes
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape}, expected ({dim}, {dim})")
        res = _symplectic_residual(mat)
        if not res < self.tol:  # a NaN residual fails too
            raise ValueError(f"matrix is not symplectic (relative residual {res:.3e} "
                             f">= {self.tol:.1e})")
        object.__setattr__(self, "matrix", _frozen(mat))

    def __matmul__(self, other: "SymplecticOp") -> "SymplecticOp":
        if self.n_modes != other.n_modes:
            raise ValueError("mode count mismatch in composition")
        return SymplecticOp(self.n_modes, self.matrix @ other.matrix,
                            tol=max(self.tol, other.tol))

    def inverse(self) -> "SymplecticOp":
        return SymplecticOp(self.n_modes, _symplectic_inverse(self.matrix), tol=self.tol)


def _symplectic_residual(mat: np.ndarray) -> float:
    """max |S Omega S^T - Omega| / max(1, max |S|^2), the residual relative to its roundoff.

    Each entry of S Omega S^T is a sum of n products of two entries of S, so
    its rounding error grows as max |S|^2: a squeezer at r = 8 (entries near
    1.5e3) leaves an absolute residual near 2e-10 although it is symplectic by
    construction.  Relative to that scale the roundoff of a symplectic matrix
    stays within a few n u (u = 1.1e-16), far below SYMPLECTIC_TOL.
    """
    omega = symplectic_form(mat.shape[-1] // 2)
    res = np.abs(mat @ omega @ mat.T - omega).max()
    scale = np.abs(mat).max()
    return res / max(1.0, scale * scale)


def _symplectic_inverse(mat: np.ndarray) -> np.ndarray:
    """S^-1 = Omega^T S^T Omega for one matrix or a stack; cheaper and better
    conditioned than a solve, and exact (a signed permutation of S^T)."""
    omega = symplectic_form(mat.shape[-1] // 2)
    return omega.T @ mat.swapaxes(-1, -2) @ omega


def check_symplectic(op, tol: float = SYMPLECTIC_TOL) -> bool:
    """True iff the relative residual max |S Omega S^T - Omega| / max(1, max |S|^2)
    is below tol; False for a NaN residual.

    Accepts a SymplecticOp or a raw square matrix of even dimension.
    """
    mat = op.matrix if isinstance(op, SymplecticOp) else np.asarray(op, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise ValueError(f"expected a square even-dimension matrix, got shape {mat.shape}")
    return bool(_symplectic_residual(mat) < tol)


def vacuum_state(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero displacement, identity covariance."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    return GaussianState(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def pumped_input_state(nbar: float, pump_phase: float = 0.0) -> GaussianState:
    """Three-mode input: coherent pump with mean photon number ``nbar``, side modes in vacuum.

    Mode ordering is pump first (rows/cols 1-2), then the two side modes.

    Args:
        nbar: pump mean particle number, >= 0.
        pump_phase: phase of the pump's coherent amplitude, radians.
    """
    if nbar < 0:
        raise ValueError(f"mean particle number must be nonnegative, got {nbar}")
    return GaussianState(3, _pump_displacement(nbar, pump_phase), np.eye(6))


def _pump_displacement(nbar, pump_phase) -> np.ndarray:
    """Displacement of the coherent pump with vacuum side modes; broadcasts over inputs."""
    amp = np.sqrt(nbar)
    d = np.zeros(np.shape(amp) + (6,))
    d[..., 0] = 2.0 * amp * np.cos(pump_phase)
    d[..., 1] = 2.0 * amp * np.sin(pump_phase)
    return d


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Evolve a state: d' = S d, sigma' = S sigma S^T."""
    if state.n_modes != op.n_modes:
        raise ValueError(
            f"mode count mismatch: state has {state.n_modes}, operation has {op.n_modes}")
    S = op.matrix
    sigma = S @ state.sigma @ S.T
    sigma = 0.5 * (sigma + sigma.T)  # scrub roundoff asymmetry
    return GaussianState(state.n_modes, S @ state.d, sigma, _derived=True)


def _checked_modes(state: GaussianState, modes) -> list:
    """``modes`` as a list, after checking that they are distinct modes of ``state``."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"mode indices must be distinct, got {modes}")
    for m in modes:
        if not 0 <= m < state.n_modes:
            raise ValueError(f"mode index {m} out of range for {state.n_modes}-mode state")
    return modes


def reduce_to_modes(state: GaussianState, modes) -> GaussianState:
    """Partial trace down to the given modes, kept in the order given."""
    modes = _checked_modes(state, modes)
    if not modes:
        raise ValueError("must keep at least one mode")
    idx = np.array([2 * m + k for m in modes for k in (0, 1)])
    return GaussianState(len(modes), state.d[idx], state.sigma[np.ix_(idx, idx)], _derived=True)


def purity(state: GaussianState) -> float:
    """Purity mu = 1/sqrt(det sigma); equals 1 for pure Gaussian states."""
    det = np.linalg.det(state.sigma)
    if det <= 0:
        raise ValueError(f"corrupted state: det(sigma) = {det!r}")
    return 1.0 / np.sqrt(det)


def number_mean(state: GaussianState, modes=None) -> float:
    """Total mean particle number over ``modes`` (all modes by default)."""
    total = 0.0
    for m in range(state.n_modes) if modes is None else _checked_modes(state, modes):
        q, p = 2 * m, 2 * m + 1
        total += 0.25 * (state.sigma[q, q] + state.sigma[p, p]
                         + state.d[q] ** 2 + state.d[p] ** 2) - 0.5
    return total
