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

The seed is symmetric and both equations carry the coefficients (1, beta),
so the system is unchanged when P and Q are swapped: every operation on Q
would repeat, on the same bits, the matching operation on P, and Q stays
equal to P in every bit.  The solver therefore iterates P alone, takes each
sum over the two components as x + x (exact, and bitwise x_P + x_Q), and
returns a copy of P as Q.

A sweep takes one pair of transforms, (1 - Lap)^-1 N_P.  The new iterate's
(1 - Lap)P is S^gamma N_P, the right-hand side just inverted, so the
numerator of S and the fixed-point residual max|S^gamma N_P - N_P(P+)| of
the new iterate need no transform; the next sweep reuses N_P(P+).  Each
level's seed takes a pair for its (1 - Lap)P, and when the fixed-point
residual falls below ``tol`` the residual is measured directly on the
iterate, from its transformed (1 - Lap)P (a pair); the level ends only if
that measured residual is below ``tol`` too, and otherwise sweeps on.  So a
level of m sweeps with one passing check takes 2 + 2m + 2 transforms.  The
iterate is real, so these are real transforms on the half spectrum.

A sweep allocates no field.  Each level takes its buffers once, next to its
seed P: the half spectrum ``coeffs``, which every transform pair goes
through; real fields for |P|, N_P, op_P = (1 - Lap)P and one scratch (the
products whose sums give S, and the residual); and N's second scratch, at
sigma != 1 only.  The sweep writes into them: the new iterate over P, which
the sweep no longer reads once S is known, and N_P(P+) into the old op_P
while op_P takes the old N_P's buffer, so nothing is copied.

The solve runs coarse to fine: the ground state decays exponentially, so a
grid of n/2 nodes per axis on the same box nearly resolves it.  A grid of
more than 64^2 nodes in all is first solved at n/2 per axis, recursively, and
its sweeps start from that solution prolonged (``Grid.prolong``, 2
transforms); a grid of at most 64^2 nodes starts from the Gaussian seed
(Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42, 2004).  The floor counts
nodes, not nodes per axis: a 1D sweep costs little more than its calls, so
1D grids up to n = 4096 are solved on one level, where coarse levels would
only add sweeps.  ``max_iter`` bounds the
sweeps of all levels together.

At beta = 0 the system decouples and the solution pair found from a symmetric
seed consists of two copies of the scalar ground state, so the constant is
reported under both readings of the norm in the formula: the pair reading
``||P||^2 + ||Q||^2`` and the single-component reading ``||P||^2`` (Q = 0),
the ``k_opt_pair`` and ``k_opt_single`` fields of :class:`GroundStatePair`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemState, _phase_multiplier, _spectral_diagnostics
from .grid import Grid
from .observables import _potential_integrals, _powers

__all__ = [
    "GroundStatePair",
    "GroundStateError",
    "solve_ground_state",
    "gn_ratio",
    "critical_threshold",
]

# grids of more nodes are first solved at n/2 per axis on the same box
_COARSEST_NODES = 64**2


class GroundStateError(RuntimeError):
    """Raised when the elliptic iteration fails to converge.

    ``residual_trace`` holds one residual per sweep so far, as in
    :class:`GroundStatePair`.
    """

    def __init__(self, message: str, residual_trace: list[float] | None = None):
        super().__init__(message)
        self.residual_trace = residual_trace or []


@dataclass
class GroundStatePair:
    """Converged pair with residual and derived constants.

    ``iterations`` counts the sweeps of every grid level; ``levels`` lists
    (n, sweeps) per level, coarsest first.  The solve's residual trace
    holds one max-norm residual per sweep: the fixed-point residual
    max|S^gamma N_P - N_P(P+)|, except where that fell below ``tol``; there
    it is the residual measured directly on the iterate, from its
    transformed (1 - Lap)P.  Each level ends on a measured residual, so
    ``residual_inf``, the last, is measured on the returned P.
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
    levels: tuple[tuple[int, int], ...]
    norm_sq_P: float
    norm_sq_Q: float
    k_opt_pair: float
    k_opt_single: float


def _nonlinear_term(f: np.ndarray, a_self: np.ndarray, a_other: np.ndarray,
                    sigma: float, beta: float, out: np.ndarray | None = None,
                    tmp: np.ndarray | None = None,
                    tmp2: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side N_f = (...)f of one real component into ``out``, given
    the moduli |f| and |g| of the pair; the bracket is the N-step multiplier
    with l_self = 1 and l_mixed = beta, taken with the scratch ``tmp`` and
    (read only at sigma != 1) ``tmp2``.  Without ``out`` all three are
    allocated."""
    if out is None:
        out, tmp, tmp2 = (np.empty_like(a_self) for _ in range(3))
    nf = _phase_multiplier(a_self, a_other, 1.0, beta, sigma, out, tmp, tmp2)
    nf *= f
    return nf


def _k_opt_value(sigma: float, dim: int, norm_sq_sum: float) -> float:
    ns = dim * sigma
    return (
        2.0 * (sigma + 1.0)
        / (ns ** (ns / 2.0) * (2.0 * sigma + 2.0 - ns) ** (1.0 - ns / 2.0))
        / norm_sq_sum**sigma
    )


def _solve_levels(sigma: float, beta: float, grid: Grid, tol: float, max_iter: int,
                  trace: list[float], levels: list[tuple[int, int]]) -> np.ndarray:
    """P on ``grid``, iterated from the prolonged solution on the grid of n/2
    nodes per axis, or from the Gaussian seed at or below the floor.

    Appends each sweep's residual to ``trace`` and (n, sweeps) to
    ``levels``; all levels together take at most ``max_iter`` sweeps.  A
    non-finite residual ends the solve at once.
    """
    if grid.node_count > _COARSEST_NODES:
        # the coarse grid is a temporary, freed before the prolongation
        # allocates this level's fields
        P = grid.prolong(_solve_levels(sigma, beta, Grid(grid.dim, grid.n // 2, grid.length),
                                       tol, max_iter, trace, levels))
    else:
        P = np.exp(-grid.r_sq / 2.0)

    symbol = 1.0 + grid.k_sq[..., :grid.n // 2 + 1]  # on the real half spectrum
    inv_symbol = 1.0 / symbol
    gamma = (2.0 * sigma + 1.0) / (2.0 * sigma)
    h = grid.spacing**grid.dim

    # the level's buffers (see the module docstring); each sweep writes the
    # new iterate over P, and N_P and op_P trade names
    coeffs = np.empty(grid.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
    modulus, NP, op_P, scratch = (np.empty(grid.shape) for _ in range(4))
    scratch2 = np.empty(grid.shape) if sigma != 1.0 else None

    def _apply_symbol(f, symbol, out):
        np.multiply(grid.rfft(f, out=coeffs), symbol, out=coeffs)
        return grid.irfft(coeffs, out=out)

    # Q stays P's bits (see the module docstring), so only P is iterated;
    # each pair sum over the components is x + x, which is exact
    def _evaluate(P, op_P, out):
        # N_P into ``out`` and <P,(1-Lap)P> + <Q,(1-Lap)Q> of one iterate,
        # given its (1-Lap)P
        aP = np.abs(P, out=modulus)
        NP = _nonlinear_term(P, aP, aP, sigma, beta, out, scratch, scratch2)
        inner = np.multiply(P, op_P, out=scratch).sum()
        return NP, float((inner + inner) * h)

    NP, lhs = _evaluate(P, _apply_symbol(P, symbol, op_P), NP)
    residual = trace[-1] if trace else np.inf
    for iteration in range(1, max_iter - len(trace) + 1):
        power = np.multiply(P, NP, out=scratch).sum()
        rhs = float((power + power) * h)
        if rhs <= 0 or lhs <= 0:
            raise GroundStateError(
                "iteration collapsed to the zero solution", trace
            )
        s_factor = (lhs / rhs) ** gamma
        P = _apply_symbol(NP, inv_symbol, P)
        P *= s_factor
        # the new iterate's (1-Lap)P is the right-hand side just inverted
        op_P, NP = NP, op_P
        op_P *= s_factor
        NP, lhs = _evaluate(P, op_P, NP)
        difference = np.subtract(op_P, NP, out=scratch)
        residual = float(np.abs(difference, out=difference).max())
        if residual < tol:
            # the level ends on a residual measured on the iterate itself
            difference = _apply_symbol(P, symbol, scratch)
            difference -= NP
            residual = float(np.abs(difference, out=difference).max())
        trace.append(residual)
        if not np.isfinite(residual):
            raise GroundStateError(f"non-finite residual at iteration {len(trace)}", trace)
        if residual < tol:
            break
    else:
        raise GroundStateError(
            f"no convergence after {max_iter} iterations "
            f"(last residual {residual:.3e})",
            trace,
        )
    levels.append((grid.n, iteration))
    return P


def _check_arguments(beta: float, tol: float, max_iter: int) -> None:
    """Raise ``ValueError`` unless beta, tol and max_iter are valid for the solver."""
    # written so that NaN and inf fail too
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def solve_ground_state(
    sigma: float,
    beta: float,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 5000,
) -> GroundStatePair:
    """Solve the coupled elliptic system from the symmetric Gaussian seed
    P = Q = exp(-|x|^2 / 2), coarse to fine (see the module docstring).

    Returns a :class:`GroundStatePair` whose elliptic residual max-norm on
    ``grid`` is below ``tol``.  Raises :class:`GroundStateError` when the
    sweeps of all levels together exceed ``max_iter`` (with the residual
    trace of every sweep attached), at a non-finite residual, or on
    collapse to the zero solution.  Raises ``ValueError`` for a non-positive
    or non-finite sigma, a negative or non-finite beta, a non-positive or
    non-finite ``tol``, or ``max_iter`` < 1.
    """
    dim = grid.dim
    # a grid has dim 1 or 2, where every positive finite sigma is energy-subcritical
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must lie in (0, inf) for dim={dim}, got {sigma}")
    _check_arguments(beta, tol, max_iter)

    trace: list[float] = []
    levels: list[tuple[int, int]] = []
    P = _solve_levels(sigma, beta, grid, tol, max_iter, trace, levels)

    norm_sq = grid.norm_sq(P)
    if norm_sq + norm_sq < 1e-8:
        raise GroundStateError("converged to the zero solution (mass floor)", trace)

    return GroundStatePair(
        P=P,
        Q=P.copy(),
        sigma=sigma,
        beta=beta,
        grid=grid,
        residual_inf=trace[-1],
        iterations=len(trace),
        levels=tuple(levels),
        norm_sq_P=norm_sq,
        norm_sq_Q=norm_sq,
        k_opt_pair=_k_opt_value(sigma, dim, norm_sq + norm_sq),
        k_opt_single=_k_opt_value(sigma, dim, norm_sq),
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
    iu, iv, iuv = (p[0] for p in _potential_integrals(_powers(np.abs(u), sigma),
                                                      _powers(np.abs(v), sigma), grid))
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
