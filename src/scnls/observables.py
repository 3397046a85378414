"""Monitored functionals and identity checks along trajectories.

Four functionals of the field pair are tracked:

    M = integral |u|^2 + |v|^2
    H = 1/2 integral |grad u|^2 + |grad v|^2
        - 1/(2+2s) integral l11|u|^(2+2s) + l22|v|^(2+2s) + 2 l12 |v|^(s+1)|u|^(s+1)
    V = integral |x|^2 (|u|^2 + |v|^2)
    G = Im integral u x.grad(conj u) + v x.grad(conj v)

Each ingredient is computed in one place.  ||grad u||^2 + ||grad v||^2
comes only from :func:`scnls.dynamics._spectral_diagnostics` (Parseval).
The potential integrals of |u|^(2s+2), |v|^(2s+2) and (|u||v|)^(s+1) come
only from :func:`_potential_integrals`; H, the virial quartic below and
:func:`scnls.groundstate.gn_ratio` weigh them with their own coefficients.
The masked mixed-term factor |f|^(s-1) lives only in
``scnls.dynamics._phase_multiplier``, shared by the N step and the
ground-state solver.  The recorder takes |u| and |v| once per row and
reuses the diagnostics ``evolve`` has just computed, so of a row only G
transforms, and only the live components (a component that is zero in
every path ``evolve`` started from adds exactly 0 to G).  G takes its
forward transforms from the transforms ``evolve`` stages or materialises
with the state, and so do the Ito terms of
:meth:`TrajectoryRecorder.on_step`, so both transform only back.

Rows are recorded a block of states at a time.  At a due step ``evolve``
stages each path's state (:meth:`TrajectoryRecorder.stage`): its
transforms half * w_hat, its time, its spectral diagnostics and its Ito
sums at that step.  A block holds at most ``_BATCH_NODES`` grid nodes (8
states at n = 1024, 16 at n = 512).  It is computed when it is full, when
a path leaves (``keep``, ``finalize``; the end of a run is every path
leaving) and before a state given to ``record`` itself.  A block takes one
batched derivative transform per axis and live row for G, one batched
inverse transform per live row for the fields, in place in the staged
transforms once G's gradients have read them, and every integral as a
per-state node sum over contiguous rows, so each state's bits are those of
the state recorded alone.  A state given to ``record`` is a block of one
from its own fields: the t = 0 row, a path that leaves at that step (the
batch is materialised for it anyway), and every state of at least
``_BATCH_NODES`` nodes, which ``evolve`` never stages, so that no staging
array is allocated for it.  A block allocates one scratch of real fields
of its shape, six for a live pair and three (1D) or four (2D) for one live
row, in which G first runs its derivatives and products as complex fields,
and then the moduli, densities and their products.  The Ito terms take one
complex and one real field pair of the batch per call, reused over the
rows, modes and axes.  Neither scratch is kept between calls: kept by the
recorder, it stayed resident through the step and the writes and raised
the run's peak memory.  The staged transforms are kept, from the first
stage on.  Model constants such as sqrt(F_u F_v) are taken once per
recorder.  What is exactly zero is skipped.  A dead component's modulus,
mass and |f|^(2s+2) integral are 0, and each of its other terms is 0, or 0
times a finite factor of the live component (|f|^2, 2|f|, |f|^(s+1)) as
long as the live component's integral of |f|^(2s+2) is finite: that
integral is a sum of nonnegative terms, so then every term is finite.
When it is not, that state's row is computed from both components, as the
formulas read, so that a NaN still propagates.  With K = 0 and one live
component, each drift-kernel term is 0 times its |f|^2, so both kernels
are 0.0 under the same condition.

Along a path, M is exactly conserved by the scheme.  H evolves by an Ito
martingale plus a drift; two candidate drift kernels are computed side by
side, one built from the noise intensity fields F_i (the "paper" kernel) and
one from the mode gradients (the "gradient" kernel):

    paper:    1/2 integral |u|^2 F_1 + |v|^2 F_2 + 2|uv| sqrt(F_1 F_2)
    gradient: 1/2 sum_k integral |u|^2 |grad g_{1,k}|^2 + |v|^2 |grad g_{2,k}|^2

The two disagree on a closed-form test path (a single spatially constant
mode), so both residuals are always reported and neither is asserted as
ground truth.  With the momentum oriented as g = Im integral conj(u)
x.grad(u) + conj(v) x.grad(v) (the negative of the G ordering above, see
:func:`virial_residuals`), V and g satisfy

    V(t) = V(0) + 4 integral_0^t g ds                        (exact pathwise)
    g(t) = g(0) + 4 integral H ds
         + (2 - s*N)/(s+1) integral [l11|u|^(2s+2) + l22|v|^(2s+2)
                                     + 2 l21 |u|^(s+1)|v|^(s+1)] ds
         - sum_k integral (integral |u|^2 x.grad g_{1,k}
                           + |v|^2 x.grad g_{2,k} dx) dB_k

Martingale sums are accumulated every step with left-point (Ito) evaluation
and the exact increment that drove the step; time integrals of drift kernels
use the trapezoid rule on the recorded cadence.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .dynamics import Coupling, SystemState, _node_sums, _spectral_diagnostics
from .grid import Grid
from .noise import NoiseModel

__all__ = [
    "mass",
    "hamiltonian",
    "variance",
    "momentum_G",
    "TrajectoryRecorder",
    "TrajectoryRecord",
    "EnergyBudget",
    "energy_budget",
    "virial_residuals",
    "CriterionResult",
    "criterion_lhs",
    "blowup_criterion",
    "corollary_energy_bound",
]


# -- pointwise functionals ---------------------------------------------------


def mass(state: SystemState) -> tuple[float, float, float]:
    """Component masses (integral |u|^2, integral |v|^2) and their sum."""
    grid = state.grid
    mu = grid.norm_sq(state.u)
    mv = grid.norm_sq(state.v)
    return mu, mv, mu + mv


def hamiltonian(state: SystemState, coupling: Coupling) -> float:
    """Energy functional; kinetic part from the spectral diagnostics."""
    grad_norm_sq = _spectral_diagnostics(state)[0][0]
    powers = _powers(np.abs(state.fields), coupling.sigma)
    potential = [float(p[0]) for p in _potential_integrals(*powers, state.grid)]
    return _energy(grad_norm_sq, potential, coupling)


def _powers(moduli: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """|f|^(s+1) from the moduli |f|; sigma = 1 squares instead of calling the general power."""
    if sigma == 1.0:
        return np.square(moduli, out=out)
    return np.power(moduli, sigma + 1.0, out=out)


def _potential_integrals(pu: np.ndarray | None, pv: np.ndarray | None, grid: Grid,
                         tmp: np.ndarray | None = None) -> tuple:
    """(integral |u|^(2s+2), integral |v|^(2s+2), integral (|u||v|)^(s+1)) of each state.

    The package's one potential integrand, from the powers ``pu`` =
    |u|^(s+1) and ``pv`` = |v|^(s+1) of :func:`_powers`, which it squares
    in place (``tmp``, when given, takes their product): H weighs the three
    integrals with (l11, l22, 2 l12), the virial quartic with
    (l11, l22, 2 l21) and the interpolation ratio with (1, 1, 2 beta).  The
    powers are one state's fields or a block of states on a leading axis;
    each integral is an array of one value per state (:func:`_node_sums`).
    A row given as None is zero: its integral and the mixed one are 0.0,
    which is exact while the other row's integral is finite (the caller
    checks that).
    """
    h = grid.spacing**grid.dim
    if pu is None or pv is None:
        p = pu if pv is None else pv
        own = _node_sums(np.square(p, out=p), grid) * h
        return (own, 0.0, 0.0) if pv is None else (0.0, own, 0.0)
    mixed = _node_sums(np.multiply(pu, pv, out=tmp), grid) * h
    return (_node_sums(np.square(pu, out=pu), grid) * h,
            _node_sums(np.square(pv, out=pv), grid) * h, mixed)


def _energy(grad_norm_sq: float, potential: tuple[float, float, float],
            coupling: Coupling) -> float:
    """H from ||grad u||^2 + ||grad v||^2 and the three potential integrals."""
    iu, iv, iuv = potential
    weighted = coupling.l11 * iu + coupling.l22 * iv + 2.0 * coupling.l12 * iuv
    return 0.5 * grad_norm_sq - weighted / (2.0 + 2.0 * coupling.sigma)


def variance(state: SystemState, warn_boundary: bool = True) -> float:
    """Second moment integral |x|^2 (|u|^2 + |v|^2) with centered coordinates.

    Meaningful only while the fields decay before the box boundary; if the
    outermost shell carries a mass fraction >= 1e-8 a warning is emitted.
    """
    grid = state.grid
    density = np.abs(state.u) ** 2 + np.abs(state.v) ** 2
    if warn_boundary:
        shell_width = max(4.0 * grid.spacing, 0.02 * grid.length)
        shell = np.zeros(grid.shape, dtype=bool)
        for xa in grid.x:
            shell |= np.abs(xa) >= 0.5 * grid.length - shell_width
        total = density.sum()
        if total > 0 and density[shell].sum() / total >= 1e-8:
            warnings.warn(
                "boundary shell carries a non-negligible mass fraction; "
                "the second moment is contaminated by the periodic box",
                stacklevel=2,
            )
    return float(grid.quadrature(grid.r_sq * density))


def momentum_G(state: SystemState) -> float:
    """G = Im integral u x.grad(conj u) + v x.grad(conj v)."""
    grid, fields = state.grid, state.fields[:, None]
    xdots = _conj_gradients(grid, grid.fft(fields), (0, 1),
                            np.empty((grid.dim + 1,) + fields.shape[1:], dtype=complex))
    return float(_momentum(grid, fields, (0, 1), xdots)[0])


def _conj_gradients(grid: Grid, spectra: np.ndarray, rows, out: np.ndarray) -> list:
    """x.grad(conj f) of each row f in ``rows`` of a pair whose transforms are ``spectra``.

    Each row of the pair in ``rows`` is a block of m states, shape ``(m,
    *grid.shape)``, and the gradients take only the inverse transforms.  ``out`` holds complex
    fields of one row's shape: the j-th row taken works in
    ``out[j:j + dim]`` and leaves its result in ``out[j]``, so ``dim + 1``
    fields serve both rows.  Returns the results in the order of ``rows``.
    """
    xdots = []
    for j, i in enumerate(rows):
        xdot = out[j]
        # x . grad(conj f) starts from the first axis's term, not from 0:
        # the two differ only in the sign of a zero, which cannot reach G,
        # since its sum starts at 0j
        for axis, (xa, term) in enumerate(zip(grid.x, out[j:j + grid.dim])):
            grid._derivative(spectra[i], axis, out=term)
            np.conj(term, out=term)
            np.multiply(xa, term, out=term)
            if axis:
                xdot += term
        xdots.append(xdot)
    return xdots


def _momentum(grid: Grid, fields: np.ndarray, rows, xdots) -> np.ndarray:
    """G of each state of a block pair, summed over ``rows``, from :func:`_conj_gradients`.

    A zero field adds exactly 0.  The products run in place in ``xdots``.
    """
    h = grid.spacing**grid.dim
    total = np.zeros(len(xdots[0]), dtype=complex)
    for i, xdot in zip(rows, xdots):
        total += _node_sums(np.multiply(fields[i], xdot, out=xdot), grid) * h
    return total.imag


# -- trajectory recording ----------------------------------------------------

# the most grid nodes, summed over its states, that one batch of paths
# (harness) or one block of recorded states (TrajectoryRecorder) holds.
# Batching pays only while the work is bound by numpy's per-call overhead:
# in-process (2-vCPU x86-64, numpy 2.4, stochastic_pair and collapse_2d.ini),
# the time per path-step stopped falling at 8192 nodes in 1D (n = 512 at 16
# paths, n = 2048 at 4), and in 2D gained about 10% at n = 64 and nothing
# from n = 128 on, while a batch's traced peak memory grew about 130 B per
# node.  An 8-path collapse_2d.ini ensemble (n = 256) run as one batch was
# slower than path by path and raised the peak RSS from 60 to 100 MB, so 2D
# ensembles at n >= 128 run one path per batch, and their states are
# recorded one at a time.
_BATCH_NODES = 8192

CSV_COLUMNS = (
    "t", "mass_u", "mass_v", "H", "V", "G", "grad_norm_sq",
    "spectral_tail_fraction", "residual_energy_paper",
    "residual_energy_gradient", "residual_V", "residual_G",
)


@dataclass
class TrajectoryRecord:
    """Time series of the monitored functionals plus identity accumulators.

    ``stoch_energy`` and ``stoch_G`` are the running Ito sums of the
    martingale terms in the energy and momentum identities, sampled at the
    record times; they are accumulated every step regardless of the record
    cadence.  ``tracked`` is False when the run was made without identity
    accumulation, in which case the budget checks refuse the record.
    """

    t: np.ndarray
    mass_u: np.ndarray
    mass_v: np.ndarray
    H: np.ndarray
    V: np.ndarray
    G: np.ndarray
    grad_norm_sq: np.ndarray
    spectral_tail_fraction: np.ndarray
    paper_kernel: np.ndarray
    gradient_kernel: np.ndarray
    coupling_quartic: np.ndarray
    stoch_energy: np.ndarray
    stoch_G: np.ndarray
    sigma: float
    dim: int
    tracked: bool

    def __len__(self) -> int:
        return len(self.t)


# the record's series fields, in order: one column of a recorder row each
_ROW_NAMES = tuple(f.name for f in dataclasses.fields(TrajectoryRecord) if f.type == "np.ndarray")


def _ito_terms(fields: np.ndarray, model: NoiseModel, rows,
               spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component, per-path, per-mode Ito integrands of a batch pair, each (2, P, K).

    Im integral conj(f) grad(f) . grad(g_k) dx (energy identity) and
    integral |f|^2 x.grad(g_k) dx (momentum identity) for each row f of the
    pair ``fields`` (shape ``(2, P, *grid.shape)``) in ``rows``, with that
    component's own modes; a row not in ``rows`` is zero in every path and
    its terms are 0.  The rows are taken one at a time, as the L step takes
    them, in one scratch per call: a complex pair of one component's batch
    shape (conj(f) and one derivative), the density |f|^2, and the (K, P,
    nodes) products of one identity term with all K modes, which one
    broadcast multiply writes and one reduction sums, a (mode, path) row of
    nodes at a time.  A scratch kept by the recorder stays resident and
    raised a batched ensemble's peak memory (ensemble_1d), while a call's
    allocations cost nothing measurable.  ``spectra`` holds the pair's
    forward transforms, so the gradients only transform back.
    """
    grid = model.grid
    h = grid.spacing**grid.dim
    conj_f, derivative = np.empty((2,) + fields.shape[1:], dtype=complex)
    density = np.empty(fields.shape[1:])
    products = np.empty((model.K,) + fields.shape[1:])
    energy = np.zeros(fields.shape[:2] + (model.K,))
    moment = np.zeros_like(energy)

    def mode_sums(factor, modes):
        # each (mode, path) sum over its nodes, as a (P, K) array
        np.multiply(factor, modes[:, None], out=products)
        return _node_sums(products, grid).reshape(products.shape[:2]).T

    for i in rows:
        f = fields[i]
        grad_modes = (model.grad_modes_u, model.grad_modes_v)[i]
        xdot = (model.xdot_grad_u, model.xdot_grad_v)[i]
        np.abs(f, out=density)
        np.square(density, out=density)
        moment[i] = mode_sums(density, xdot) * h
        np.conj(f, out=conj_f)
        for axis in range(grid.dim):
            grid._derivative(spectra[i], axis, out=derivative)
            derivative *= conj_f
            energy[i] += mode_sums(derivative.imag, grad_modes[:, axis])
    return energy * h, moment


def _weighted(parts, weights, rows, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The sum over ``rows`` of parts[i] * weights[i], row 0's term first, into ``out``."""
    for i, product in zip(rows, (out, tmp)):
        np.multiply(parts[i], weights[i], out=product)
    if len(rows) == 2:
        out += tmp
    return out


def _mode_dot(terms: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Per-path sum_k terms[:, k] * increments[:, k], accumulated mode by mode.

    A BLAS dot product's bits depend on the batch shape; this sum's do not.
    """
    total = terms[:, 0] * increments[:, 0]
    for k in range(1, terms.shape[1]):
        total += terms[:, k] * increments[:, k]
    return total


class TrajectoryRecorder:
    """Accumulates observable rows and the per-step Ito martingale sums of a batch.

    The recorder keeps ``paths`` paths (one by default); path r is row r of
    the batch fields' path axis.  ``on_step(state, increments, spectra)``
    must be called with the pre-step batch state and the exact Wiener
    increments about to drive the step, shape (paths, K) (left-point
    evaluation).  A row of path ``row`` is appended in one of two ways.
    ``record(state, grad_norm_sq, tail, row)`` takes that path's own state at
    once.  ``stage(held, half, t, grad_norm_sq, tail, row)`` keeps the
    state's transforms until ``capacity`` states are staged, or a path
    leaves (``keep``) or is finalized, and then ``record()``, without a
    state, computes the staged states as one block (see the module
    docstring).  ``finalize(row)`` returns the path's record.  When paths
    leave the batch, ``keep(mask)`` drops their rows so that the rest close
    up as the batch's rows do.  ``evolve`` sets ``rows``, the live
    components, to its workspace's; the Ito terms, G and the moduli are
    taken over them only.  ``on_step`` takes the forward transforms of the
    pair, which ``evolve`` has with the state, so that its gradients only
    transform back; ``record`` takes them optionally and otherwise
    transforms the path itself.
    """

    def __init__(self, model: NoiseModel, coupling: Coupling,
                 track_identities: bool = True, paths: int = 1):
        self.model = model
        self.coupling = coupling
        self.track = bool(track_identities)
        self.rows = (0, 1)
        self._stoch_energy = np.zeros(paths)
        self._stoch_G = np.zeros(paths)
        # columns of raw doubles: a row costs 8 bytes per value, not a float object
        self._rows = [{name: array("d") for name in _ROW_NAMES} for _ in range(paths)]
        # F is 0 without noise, and so is sqrt(F_u F_v): no field is added
        self._sqrt_F = np.sqrt(model.F_u * model.F_v) if model.K else model.F_u
        # the staged states of one block, as many as fill _BATCH_NODES nodes;
        # each live row's transforms are allocated at the first stage
        self.capacity = max(1, _BATCH_NODES // model.grid.node_count)
        self._staged = None
        # (row, t, grad_norm_sq, tail, stoch_energy, stoch_G) of each staged state
        self._pending = []

    def on_step(self, state: SystemState, increments: np.ndarray,
                spectra: np.ndarray) -> None:
        """Add one step's Ito terms of the energy and momentum identities.

        ``state`` is the batch pair, fields of shape ``(2, paths, *grid.shape)``;
        one call takes the terms of both components, added in the order u, v.
        Every path's terms are sums over its own nodes, taken mode by mode,
        so they are bitwise the same whatever the batch size.  ``spectra``,
        of the same shape, holds the pair's forward transforms (``evolve``
        materialises them with the state before every tracked step).
        """
        model = self.model
        if not self.track or model.K == 0:
            return
        energy, moment = _ito_terms(state.fields, model, self.rows, spectra)
        # energy identity: H(t) = H(0) - sum_k Im(...) dB_k + drift
        self._stoch_energy -= _mode_dot(energy[0] + energy[1], increments)
        self._stoch_G += _mode_dot(moment[0] + moment[1], increments)

    def stage(self, held: np.ndarray, half: np.ndarray, t: float, grad_norm_sq: float,
              tail: float, row: int = 0) -> None:
        """Stage a row of path ``row`` at time ``t``, for the next block.

        ``held`` is the path's held pair w_hat and ``half`` the multiplier of
        dt/2 on the grid: the state's transforms half * w_hat are kept, as
        :func:`scnls.dynamics._materialise` writes them, with the spectral
        diagnostics and the path's Ito sums as they are now.  The staged
        states are recorded when ``capacity`` of them are.
        """
        if self._staged is None:
            shape = (self.capacity,) + self.model.grid.shape
            self._staged = [np.empty(shape, dtype=complex) if i in self.rows else None
                            for i in (0, 1)]
        slot = len(self._pending)
        for i in self.rows:
            np.multiply(held[i], half, out=self._staged[i][slot])
        self._pending.append((row, t, grad_norm_sq, tail, float(self._stoch_energy[row]),
                              float(self._stoch_G[row])))
        if len(self._pending) == self.capacity:
            self.record()

    def record(self, state: SystemState | None = None, grad_norm_sq: float = 0.0,
               tail: float = 0.0, row: int = 0, spectra: np.ndarray | None = None) -> None:
        """Append one row to path ``row`` at ``state``, that path's own state.

        ``grad_norm_sq`` and ``tail`` are the spectral diagnostics of this
        state (``evolve`` has just computed them); H takes its kinetic part
        from them, and G its forward transforms from ``spectra`` (this path's
        pair of them) when given, else from its own.  The state is a block of
        one, recorded after the staged states, which are recorded as one
        block (all that a call without a state does).
        """
        if self._pending:
            pending, self._pending = self._pending, []
            self._block(None, [s if s is None else s[:len(pending)] for s in self._staged],
                        pending)
        if state is not None:
            fields = state.fields[:, None]
            spectra = self.model.grid.fft(fields) if spectra is None else spectra[:, None]
            self._block(fields, spectra, [(row, state.t, grad_norm_sq, tail,
                                           float(self._stoch_energy[row]),
                                           float(self._stoch_G[row]))])

    def _block(self, fields: np.ndarray | None, spectra: np.ndarray, entries) -> None:
        """Append a row for each state of a block, from the pair of its transforms ``spectra``.

        Each row of ``spectra`` in ``rows`` has shape ``(m, *grid.shape)``
        (a dead row may be None), and ``entries`` holds the m states' (row,
        t, grad_norm_sq, tail, stoch_energy, stoch_G).  ``fields`` holds the
        states alike, or is None for staged states, whose fields are then
        transformed back in place in ``spectra`` once G's gradients have
        read them.  Only G transforms, and only the rows in ``rows``; the
        rest comes from the moduli (see :meth:`_integrals`).
        """
        grid, c, rows = self.model.grid, self.coupling, self.rows
        shape, pair = spectra[rows[0]].shape, len(rows) == 2
        # the block's scratch: G's gradients and products in its first
        # complex fields, then the moduli, densities and products (_integrals)
        gradients, size = len(rows) - 1 + grid.dim, spectra[rows[0]].size
        scratch = np.empty(max(2 * gradients, 6 if pair else 3) * size)
        xdots = _conj_gradients(grid, spectra, rows, scratch[:2 * gradients * size]
                                .view(complex).reshape((gradients,) + shape))
        if fields is None:
            fields = spectra
            for i in rows:
                grid.ifft(spectra[i], out=spectra[i])
        G = _momentum(grid, fields, rows, xdots)
        sums = self._integrals(fields, rows, scratch.reshape((-1,) + shape))
        if not pair:
            # a live row's integral is not finite: the dead row's zeros may
            # meet an inf there and give NaN, so that state takes them as well
            for b in np.flatnonzero(~np.isfinite(sums[5 + rows[0]])):
                alone = np.zeros((2, 1) + grid.shape, dtype=complex)
                alone[rows[0], 0] = fields[rows[0]][b]
                sums[:, b] = self._integrals(alone, (0, 1), np.empty((6, 1) + grid.shape))[:, 0]
        # the columns of the block, in _ROW_NAMES order, then each path's rows
        paths, t, grad_norm_sq, tail, stoch_energy, stoch_G = zip(*entries)
        grad_norm_sq = np.array(grad_norm_sq)
        iu, iv, iuv = sums[5:]
        table = np.array((t, sums[0], sums[1], _energy(grad_norm_sq, sums[5:], c), sums[2], G,
                          grad_norm_sq, tail, sums[3], sums[4],
                          c.l11 * iu + c.l22 * iv + 2.0 * c.l21 * iuv, stoch_energy, stoch_G))
        for row in dict.fromkeys(paths):
            picked = table[:, [b for b, p in enumerate(paths) if p == row]]
            for column, values in zip(self._rows[row].values(), picked.tolist()):
                column.extend(values)

    def _integrals(self, fields: np.ndarray, rows, block: np.ndarray) -> np.ndarray:
        """Each state's mass_u, mass_v, V, paper and gradient kernels and potential integrals.

        ``fields`` is a block pair, each row in ``rows`` of shape ``(m,
        *grid.shape)``, and the result an (8, m) array, the three integrals
        of :func:`_potential_integrals` last.  All come from |f| and |f|^2,
        taken once for each row in ``rows`` into ``block``, real fields of
        one row's shape: six for both rows, three for one.  The terms of a
        row left out, and with it both kernels when K = 0, are skipped as
        the module docstring says (they read 0.0).  The skip might not be
        exact where the live row's |f|^(2s+2) integral is not finite; the
        caller checks that.
        """
        model, c = self.model, self.coupling
        grid = model.grid
        h = grid.spacing**grid.dim
        pair = len(rows) == 2
        sums = np.zeros((8, block.shape[1]))
        if pair:
            moduli, dens, (tmp, tmp2) = block[0:2], block[2:4], block[4:6]
        else:
            # a dead row's modulus and density are None
            (live,), moduli, dens = rows, [None, None], [None, None]
            moduli[live], dens[live], tmp, tmp2 = block[0], block[1], block[2], None
        for i in rows:
            np.abs(fields[i], out=moduli[i])
            sums[i] = _node_sums(np.square(moduli[i], out=dens[i]), grid) * h

        total = np.add(dens[0], dens[1], out=tmp) if pair else dens[rows[0]]
        sums[2] = _node_sums(np.multiply(grid.r_sq, total, out=tmp), grid) * h
        if model.K or pair:
            gradient = _weighted(dens, (model.grad_sq_sum_u, model.grad_sq_sum_v), rows, tmp, tmp2)
            sums[4] = 0.5 * (_node_sums(gradient, grid) * h)
            paper_terms = _weighted(dens, (model.F_u, model.F_v), rows, tmp, tmp2)
            if pair:
                mixed = np.multiply(2.0, moduli[0], out=tmp2)
                mixed *= moduli[1]
                mixed *= self._sqrt_F
                paper_terms += mixed
            sums[3] = 0.5 * (_node_sums(paper_terms, grid) * h)

        if c.sigma != 1.0:  # at sigma = 1 the densities are the powers
            for i in rows:
                _powers(moduli[i], c.sigma, out=dens[i])
        sums[5], sums[6], sums[7] = _potential_integrals(*dens, grid, tmp)
        return sums

    def _flush(self) -> None:
        if self._pending:
            self.record()

    def finalize(self, row: int = 0) -> TrajectoryRecord:
        self._flush()
        arrays = {name: np.array(col) for name, col in self._rows[row].items()}
        return TrajectoryRecord(
            **arrays,
            sigma=self.coupling.sigma,
            dim=self.model.grid.dim,
            tracked=self.track,
        )

    def keep(self, mask: np.ndarray) -> None:
        """Drop the paths at the rows where ``mask`` is False."""
        self._flush()
        self._stoch_energy = self._stoch_energy[mask]
        self._stoch_G = self._stoch_G[mask]
        self._rows = [rows for rows, kept in zip(self._rows, mask) if kept]


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    if len(t) < 2:
        return np.zeros_like(np.asarray(y, dtype=float))
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    return np.concatenate(([0.0], np.cumsum(inc)))


@dataclass
class EnergyBudget:
    """Residual series of the energy identity for both drift kernels."""

    paper: np.ndarray
    gradient: np.ndarray


def energy_budget(record: TrajectoryRecord) -> EnergyBudget:
    """residual(t) = H(t) - H(0) - [martingale sum] - [drift integral].

    Returns the residual series of both drift kernels; rejects records
    produced without identity tracking.
    """
    if not record.tracked:
        raise ValueError("trajectory was recorded without increments; "
                         "re-run with identity tracking enabled")
    dh = record.H - record.H[0] - record.stoch_energy  # left for the drift
    return EnergyBudget(
        paper=dh - _cumulative_trapezoid(record.paper_kernel, record.t),
        gradient=dh - _cumulative_trapezoid(record.gradient_kernel, record.t),
    )


def virial_residuals(record: TrajectoryRecord) -> tuple[np.ndarray, np.ndarray]:
    """Residual series of the two virial identities.

    residual_V(t) = V(t) - V(0) - 4 integral G ds
    residual_G(t) = G(t) - G(0) - 4 integral H ds
                    - (2 - s*N)/(s+1) integral (coupling quartic) ds
                    - [martingale sum]

    The identities hold with the momentum oriented as Im integral conj(u)
    x.grad(u) (+ the v term), which is the negative of the recorded G column
    (that column keeps the ``u x.grad(conj u)`` ordering of
    :func:`momentum_G`); the compensating sign is applied here, so both
    residuals converge to zero under refinement.  The martingale accumulator
    is recorded in the ``u x.grad(conj u)`` ordering as well and enters with
    the matching sign.
    """
    if not record.tracked:
        raise ValueError("trajectory was recorded without increments; "
                         "re-run with identity tracking enabled")
    t = record.t
    g_series = -record.G  # identity-consistent orientation
    res_v = record.V - record.V[0] - 4.0 * _cumulative_trapezoid(g_series, t)
    coeff = (2.0 - record.sigma * record.dim) / (record.sigma + 1.0)
    res_g = (
        g_series
        - g_series[0]
        - 4.0 * _cumulative_trapezoid(record.H, t)
        - coeff * _cumulative_trapezoid(record.coupling_quartic, t)
        + record.stoch_G
    )
    return res_v, res_g


# -- blow-up criterion ------------------------------------------------------


@dataclass
class CriterionResult:
    lhs: float
    verdict: bool
    t_bar: float
    V0: float
    G0: float
    H0: float
    M0: float
    min_sup_F: float


def criterion_lhs(V0: float, G0: float, H0: float, M0: float,
                  min_sup_F: float, t_bar: float) -> float:
    """V0 + 4 G0 tbar + 8 H0 tbar^2 + (4/3) tbar^3 min_i sup F_i M0."""
    if not 0 < t_bar < np.inf:
        raise ValueError(f"t_bar must be positive and finite, got {t_bar}")
    return (
        V0
        + 4.0 * G0 * t_bar
        + 8.0 * H0 * t_bar**2
        + (4.0 / 3.0) * t_bar**3 * min_sup_F * M0
    )


def _in_unit_horizon(coefficients, t_bar_max: float) -> np.ndarray:
    """A polynomial in t (highest power first) as one in s = t / t_bar_max,
    less its leading coefficients below round-off of the largest: they move
    no root in [0, t_bar_max], and ``np.roots`` overflows dividing by them."""
    scaled = np.asarray(coefficients) * t_bar_max ** np.arange(len(coefficients))[::-1]
    magnitude = np.abs(scaled)
    return scaled[np.argmax(magnitude > np.finfo(float).eps * magnitude.max()):]


def _criterion_extrema(V0: float, G0: float, H0: float, M0: float,
                       min_sup_F: float, t_bar_max: float):
    """(t_argmin, lhs_min, t_certified) of :func:`criterion_lhs` on horizons in (0, t_bar_max].

    The minimum lies at t_bar_max, at a root of p' / 4 = c t^2 + 4 H0 t + G0
    (c = min_sup_F M0) inside the range, or at t -> 0, where p tends to V0:
    t_argmin is then 0.0.  t_certified is the infimum of the horizons with
    p < 0, None when there are none; for V0 >= 0 and c >= 0 they form one
    interval.
    """
    c = min_sup_F * M0
    # the real part of a complex pair is still a point of the range: a harmless extra candidate
    stationary = np.roots(_in_unit_horizon([c, 4.0 * H0, G0], t_bar_max)).real * t_bar_max
    horizons = [t_bar_max, *stationary[(0 < stationary) & (stationary < t_bar_max)]]
    candidates = [(criterion_lhs(V0, G0, H0, M0, min_sup_F, t), t) for t in horizons]
    # the first of equal values wins, so a constant p keeps the positive horizon t_bar_max
    lhs_min, t_argmin = min(candidates + [(V0, 0.0)], key=lambda pair: pair[0])
    t_argmin, lhs_min = float(t_argmin), float(lhs_min)
    if not lhs_min < 0:
        return t_argmin, lhs_min, None
    # zero constant terms are roots at 0, where p keeps its sign on t > 0
    p = np.trim_zeros(np.array([(4.0 / 3.0) * c, 8.0 * H0, 4.0 * G0, V0]), "b")
    if p[-1] < 0:
        return t_argmin, lhs_min, 0.0
    # p(0) > 0 > lhs_min, so every root is real (a nearly double one may come out as a
    # complex pair: its real part serves), and one is negative exactly when
    # p(-inf) < 0.  Counting it, not testing signs, keeps a tiny positive root
    # that comes out as 0 or below.
    p = _in_unit_horizon(p, t_bar_max)
    roots = np.sort(np.roots(p).real) * t_bar_max
    negative = int((p[0] > 0) == (len(p) % 2 == 0))
    return t_argmin, lhs_min, max(float(roots[negative]), 0.0)


def _hypotheses(coupling: Coupling, dim: int) -> dict[str, bool]:
    """Whether the criterion's two hypotheses hold: sigma*N >= 2 and an
    entrywise nonnegative (focusing) coefficient matrix."""
    return {
        "mass_critical_or_above": bool(coupling.sigma * dim >= 2),
        "lam_entrywise_nonnegative": bool(np.all(coupling.lam >= 0)),
    }


def blowup_criterion(
    state: SystemState,
    coupling: Coupling,
    t_bar: float,
    model: NoiseModel,
    check_hypotheses: bool = True,
) -> CriterionResult:
    """Evaluate the blow-up criterion polynomial of the initial ``state`` at horizon ``t_bar``.

    A negative lhs certifies positive blow-up probability by ``t_bar`` only
    under the hypotheses of :func:`_hypotheses`; the nonnegative matrix keeps
    the potential integrand of the virial identity nonnegative.  Outside them
    a warning is emitted and the arithmetic is still returned.  Raises
    ValueError when a moment of the state is not finite: no verdict follows
    from an overflow.
    """
    # the polynomial bounds V(t) through the virial identities, so the
    # momentum enters in the identity-consistent orientation -momentum_G
    moments = (variance(state, warn_boundary=False), -momentum_G(state),
               hamiltonian(state, coupling), mass(state)[2])
    if not all(map(math.isfinite, moments)):
        raise ValueError(f"the initial moments (V0, G0, H0, M0) = {moments} are not all finite")
    lhs = criterion_lhs(*moments, model.min_sup_F, t_bar)
    if check_hypotheses:
        holds = _hypotheses(coupling, state.grid.dim)
        if not holds["mass_critical_or_above"]:
            warnings.warn(
                "criterion evaluated below the mass-critical exponent "
                "(sigma*N < 2); a negative value carries no blow-up guarantee "
                "in this regime",
                stacklevel=2,
            )
        if not holds["lam_entrywise_nonnegative"]:
            warnings.warn(
                "criterion evaluated with a coefficient matrix that has a "
                "negative (defocusing) entry; a negative value carries no "
                "blow-up guarantee under these coefficients",
                stacklevel=2,
            )
    return CriterionResult(lhs, lhs < 0, t_bar, *moments, model.min_sup_F)


def corollary_energy_bound(m_bar: float, t_bar: float, min_sup_F: float) -> float:
    """Energy depth H_bar making the negative-energy set nonempty.

    Returns the H_bar for which Mbar + 4 tbar Mbar - 8 tbar^2 Hbar
    + (4/3) tbar^3 min_i(sup F_i) Mbar = 0; any strictly larger H_bar makes
    the expression negative, so states with V, G, M < Mbar and H < -Hbar
    satisfy the criterion by ``t_bar``.
    """
    if m_bar <= 0 or t_bar <= 0:
        raise ValueError("need m_bar > 0 and t_bar > 0")
    return m_bar * (1.0 + 4.0 * t_bar + (4.0 / 3.0) * t_bar**3 * min_sup_F) / (8.0 * t_bar**2)
