"""Coupled elliptic ground states and the sharp interpolation constant.

Solves the real elliptic system

    -Lap P + P = (|P|^(2s) + beta |P|^(s-1) |Q|^(s+1)) P
    -Lap Q + Q = (|Q|^(2s) + beta |Q|^(s-1) |P|^(s+1)) Q

on the periodic grid and derives from the solution pair the best constant of

    ||u||_{2s+2}^{2s+2} + 2 beta ||uv||_{s+1}^{s+1} + ||v||_{2s+2}^{2s+2}
        <= K (||u||^2 + ||v||^2)^(s+1-sN/2) (||grad u||^2 + ||grad v||^2)^(sN/2)

via  K = 2(s+1) / ((N s)^(Ns/2) (2s+2-Ns)^(1-Ns/2) (||P||^2 + ||Q||^2)^s).

Solver: a stabilized spectral fixed-point iteration.  Each sweep applies the
exact inverse of (1 - Lap) in Fourier space to the nonlinear right-hand side
and renormalizes both components jointly by the factor

    S = (<P,(1-Lap)P> + <Q,(1-Lap)Q>) / (<N_P,P> + <N_Q,Q>),   gain S^gamma,

gamma = (2s+1)/(2s), which is the standard convergent normalization for a
nonlinearity of homogeneity 2s+1.  (A plain imaginary-time flow normalized to
prescribed masses cannot pin the zeroth-order coefficient to 1 at the
mass-critical exponent, where the mass of the solution family is
scale-invariant; the stabilized iteration has no such degeneracy and
converges from a symmetric Gaussian seed for every admissible s.)

Each iterate is evaluated once: N_P, N_Q, the numerator of S and the
elliptic residual come from one pass, and the next sweep reuses them, so a
solve of m sweeps takes 4 + 8m transforms.

At beta = 0 the system decouples and the solution pair found from a symmetric
seed consists of two copies of the scalar ground state, so the constant is
reported under both readings of the norm in the formula: the pair reading
``||P||^2 + ||Q||^2`` and the single-component reading ``||P||^2`` (Q = 0),
the ``k_opt_pair`` and ``k_opt_single`` fields of :class:`GroundStatePair`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemState, _phase_multiplier, _spectral_diagnostics
from .grid import Grid
from .observables import _potential_integrals

__all__ = [
    "GroundStatePair",
    "GroundStateError",
    "solve_ground_state",
    "gn_ratio",
    "critical_threshold",
]

class GroundStateError(RuntimeError):
    """Raised when the elliptic iteration fails to converge."""

    def __init__(self, message: str, residual_trace: list[float] | None = None):
        super().__init__(message)
        self.residual_trace = residual_trace or []


@dataclass
class GroundStatePair:
    """Converged pair with residual and derived constants.

    ``k_opt_pair`` uses ||P||^2 + ||Q||^2 in the constant's formula,
    ``k_opt_single`` uses ||P||^2 alone (the Q = 0 reading, meaningful at
    beta = 0 where the system decouples).
    """

    P: np.ndarray
    Q: np.ndarray
    sigma: float
    beta: float
    grid: Grid
    residual_inf: float
    iterations: int
    norm_sq_P: float
    norm_sq_Q: float
    k_opt_pair: float
    k_opt_single: float


def _nonlinear_terms(P: np.ndarray, Q: np.ndarray, sigma: float, beta: float):
    """Right-hand sides N_P = (...)P and N_Q for real fields; the bracket is
    the N-step multiplier with l_self = 1 and l_mixed = beta."""
    aP = np.abs(P)
    aQ = np.abs(Q)
    tmp, tmp2 = np.empty_like(aP), np.empty_like(aP)
    NP = _phase_multiplier(aP, aQ, 1.0, beta, sigma, np.empty_like(aP), tmp, tmp2)
    NQ = _phase_multiplier(aQ, aP, 1.0, beta, sigma, np.empty_like(aQ), tmp, tmp2)
    NP *= P
    NQ *= Q
    return NP, NQ


def _k_opt_value(sigma: float, dim: int, norm_sq_sum: float) -> float:
    ns = dim * sigma
    return (
        2.0 * (sigma + 1.0)
        / (ns ** (ns / 2.0) * (2.0 * sigma + 2.0 - ns) ** (1.0 - ns / 2.0))
        / norm_sq_sum**sigma
    )


def solve_ground_state(
    sigma: float,
    beta: float,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 5000,
) -> GroundStatePair:
    """Solve the coupled elliptic system from the symmetric Gaussian seed
    P = Q = exp(-|x|^2 / 2).

    Returns a :class:`GroundStatePair` whose elliptic residual max-norm is
    below ``tol``.  Raises :class:`GroundStateError` on non-convergence
    (with the residual trace attached) or on collapse to the zero solution.
    """
    dim = grid.dim
    upper = np.inf if dim <= 2 else 4.0 / (dim - 2)
    if not (0 < sigma < upper):
        raise ValueError(f"sigma must lie in (0, {upper}) for dim={dim}, got {sigma}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if 2.0 * sigma + 2.0 - dim * sigma <= 0:
        warnings.warn(
            "sigma at or beyond the energy-critical exponent; the constant's "
            "formula degenerates",
            stacklevel=2,
        )

    inv_symbol = 1.0 / (1.0 + grid.k_sq)
    gamma = (2.0 * sigma + 1.0) / (2.0 * sigma)

    P = np.exp(-grid.r_sq / 2.0)
    Q = P.copy()
    h = grid.spacing**dim

    def _apply_symbol(f, symbol):
        coeffs = grid.fft(f)
        coeffs *= symbol
        return grid.ifft(coeffs, out=coeffs).real

    def _evaluate(P, Q):
        # N_P, N_Q, <P,(1-Lap)P> + <Q,(1-Lap)Q> and the residual max-norm of
        # one iterate; (1-Lap)f is held for one component at a time
        NP, NQ = _nonlinear_terms(P, Q, sigma, beta)
        inner, res = [], []
        for f, Nf in ((P, NP), (Q, NQ)):
            op_f = _apply_symbol(f, 1.0 + grid.k_sq)
            inner.append((f * op_f).sum())
            res.append(np.abs(op_f - Nf).max())
        return NP, NQ, float((inner[0] + inner[1]) * h), float(max(res))

    NP, NQ, lhs, _ = _evaluate(P, Q)
    trace: list[float] = []
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        rhs = float(((P * NP).sum() + (Q * NQ).sum()) * h)
        if rhs <= 0 or lhs <= 0:
            raise GroundStateError(
                "iteration collapsed to the zero solution", trace
            )
        s_factor = (lhs / rhs) ** gamma
        P = s_factor * _apply_symbol(NP, inv_symbol)
        Q = s_factor * _apply_symbol(NQ, inv_symbol)
        del NP, NQ  # freed before the evaluation allocates the next pair

        NP, NQ, lhs, residual = _evaluate(P, Q)
        trace.append(residual)
        if residual < tol:
            break
    else:
        raise GroundStateError(
            f"no convergence after {max_iter} iterations "
            f"(last residual {residual:.3e})",
            trace,
        )

    norm_sq_P = grid.norm_sq(P)
    norm_sq_Q = grid.norm_sq(Q)
    if norm_sq_P + norm_sq_Q < 1e-8:
        raise GroundStateError("converged to the zero solution (mass floor)", trace)

    return GroundStatePair(
        P=P,
        Q=Q,
        sigma=sigma,
        beta=beta,
        grid=grid,
        residual_inf=residual,
        iterations=iteration,
        norm_sq_P=norm_sq_P,
        norm_sq_Q=norm_sq_Q,
        k_opt_pair=_k_opt_value(sigma, dim, norm_sq_P + norm_sq_Q),
        k_opt_single=_k_opt_value(sigma, dim, norm_sq_P),
    )


def gn_ratio(u: np.ndarray, v: np.ndarray, beta: float, sigma: float, grid: Grid) -> float:
    """Ratio of the inequality's left side to the right-side product.

    ratio = (||u||_{2s+2}^{2s+2} + 2 beta ||uv||_{s+1}^{s+1} + ||v||_{2s+2}^{2s+2})
            / ((M)^(s+1-sN/2) (Grad)^(sN/2))

    with M = ||u||^2 + ||v||^2 and Grad = ||grad u||^2 + ||grad v||^2.  By the
    sharp inequality the ratio never exceeds the best constant.
    """
    m = grid.norm_sq(u) + grid.norm_sq(v)
    if m <= 0:
        raise ValueError("gn_ratio requires a nonzero field pair")
    g = _spectral_diagnostics(SystemState(u, v, 0.0, grid))[0][0]
    if g <= 0:
        raise ValueError("gn_ratio requires a field pair with nonzero gradient")
    iu, iv, iuv = _potential_integrals(np.abs(u), np.abs(v), sigma, grid)
    ns = grid.dim * sigma
    return float((iu + iv + 2.0 * beta * iuv)
                 / (m ** (sigma + 1.0 - ns / 2.0) * g ** (ns / 2.0)))


def critical_threshold(lambda11: float, lambda22: float, k: float) -> float:
    """Mass-critical smallness bound 2 / (max(l11, l22) * K).

    Global existence holds at the critical exponent when
    sqrt(l11) ||u0||^2 + sqrt(l22) ||v0||^2 stays below this value.
    """
    if lambda11 <= 0 or lambda22 <= 0:
        raise ValueError("critical_threshold requires positive diagonal coefficients")
    if k <= 0:
        raise ValueError(f"best constant must be positive, got {k}")
    return 2.0 / (max(lambda11, lambda22) * k)
