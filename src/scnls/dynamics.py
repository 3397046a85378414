"""Time integration of the coupled system by operator splitting.

The system integrated pathwise is

    i du + (Lap u + (l11 |u|^(2s) + l12 |v|^(s+1) |u|^(s-1)) u) dt = u o phi_1 dW
    i dv + (Lap v + (l22 |v|^(2s) + l21 |u|^(s+1) |v|^(s-1)) v) dt = v o phi_2 dW

with s = sigma and a real 2x2 coefficient matrix.  One step of size dt is the
composition

    N(dt/2) . L(dt) . W(dB) . N(dt/2)

where N is the exact nonlinear phase rotation (the bracketed multipliers are
real, so |u| and |v| are pointwise invariant), L is the exact unitary free
flow on the grid, and W is the exact pathwise noise phase.  Every sub-step
preserves the discrete mass of each component to round-off, and the
deterministic part is Strang splitting (second order).

A :class:`SystemState` holds the pair as one array, component axis first:
shape ``(2, *grid.shape)``, or ``(2, P, *grid.shape)`` for a batch of P
paths; :func:`evolve` advances such a batch, and a single run is the batch
P = 1.  Each sub-step is written once for (u, v): N is one loop over the
live rows with the coefficient pairs (l11, l12) and (l22, l21), L and the
detector diagnostics loop their transforms over the live rows (on a 2D grid
one transform of the pair runs slower than two of one component), W is one
numpy call over the whole pair, and the finite check one per chunk (below).
Every operation is elementwise, a transform of the trailing grid axes or a
sum over one component's nodes in one path, so each path's bits do not
depend on the batch it was run in.

A row that is zero in every path of the initial batch stays zero in every
bit (each term of its equation carries it), so :func:`evolve` marks it dead
on the :class:`Workspace` and N, L, the diagnostics and the recorder's G and
Ito terms skip it.  Its zeros stay in the pair and in the workspace's moduli,
so every output is bitwise what computing on them gives.  Revive rule: when
its mixed coefficient is nonzero and the live row's |f|^(s+1) is not all
finite, 0 * inf turns it NaN, so N computes it from then on.

A step and the diagnostics are written once, as phases over chunks of the
grid (see :func:`strang_step` and :mod:`scnls.phases`).  :func:`evolve` runs
a large 2D state's phases over two halves of the grid on two threads, and
any other state's as one chunk, with bitwise the same results.

The step and the diagnostics allocate no field: they reuse the buffers of one
:class:`Workspace` (88 bytes per node and path).  One complex pair holds the
diagnostics' transforms, the other N's unimodular factor.  N leaves every
modulus unchanged, and only read-only work runs between the trailing N of one
step and the leading N of the next, so that leading N multiplies by the
factor the trailing N built instead of computing it again (the adjacent
half-flows of the composition merged).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .noise import NoiseModel, sample_increments, stratonovich_phase
from .phases import _OneChunk, _runner, _transform

__all__ = [
    "Coupling",
    "SystemState",
    "TrajectoryResult",
    "Workspace",
    "nonlinear_phase",
    "strang_step",
    "evolve",
]

# below this modulus the singular mixed-term factor |.|^(sigma-1) is set to 0;
# it only ever multiplies the same near-zero value inside a unimodular phase
_TINY_MODULUS = 1e-300


@dataclass(frozen=True)
class Coupling:
    """Nonlinearity exponent sigma and interaction matrix.

    ``lam`` is the 2x2 real matrix ((l11, l12), (l21, l22)); positive entries
    are focusing, negative defocusing.  Off-diagonal symmetry l12 == l21 is
    required unless ``allow_asymmetric`` is set, in which case a warning is
    emitted and no energy identity is claimed.
    """

    sigma: float
    lam: np.ndarray
    allow_asymmetric: bool = False

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (2, 2):
            raise ValueError(f"lam must be 2x2, got shape {lam.shape}")
        object.__setattr__(self, "lam", lam)
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if lam[0, 1] != lam[1, 0]:
            if not self.allow_asymmetric:
                raise ValueError(
                    "asymmetric interaction matrix (l12 != l21); "
                    "set allow_asymmetric=True to override"
                )
            warnings.warn(
                "asymmetric interaction matrix: the energy functional is not "
                "a Hamiltonian of this flow and no energy identity holds",
                stacklevel=2,
            )

    @property
    def l11(self) -> float:
        return float(self.lam[0, 0])

    @property
    def l12(self) -> float:
        return float(self.lam[0, 1])

    @property
    def l21(self) -> float:
        return float(self.lam[1, 0])

    @property
    def l22(self) -> float:
        return float(self.lam[1, 1])

    def check_dimension(self, dim: int) -> None:
        """Warn when sigma falls outside the local-theory range for this dim.

        The admissible set is [0, 2/dim) union (1/2, 2/(dim-2)^+); for
        dim <= 2 the upper limit is infinite.
        """
        upper = np.inf if dim <= 2 else 2.0 / (dim - 2)
        if self.sigma >= upper:
            warnings.warn(
                f"sigma={self.sigma} is not subcritical for dim={dim}", stacklevel=2
            )
        if not (self.sigma < 2.0 / dim or self.sigma > 0.5):
            warnings.warn(
                f"sigma={self.sigma} lies outside the well-posedness range "
                f"[0, {2.0 / dim}) u (0.5, {upper}) for dim={dim}",
                stacklevel=2,
            )

    def is_mass_critical(self, dim: int) -> bool:
        return abs(self.sigma - 2.0 / dim) < 1e-12


class SystemState:
    """The complex field pair and current time.

    ``fields`` holds the pair as one array with the component axis first:
    shape ``(2, *grid.shape)`` for one path, or ``(2, P, *grid.shape)`` for a
    batch of P paths at the same time ``t``; ``u`` and ``v`` are views of its
    two rows.  ``SystemState(u, v, t, grid)`` copies the pair into a new
    array; :meth:`of_pair` holds a given pair array without a copy.
    ``blown_up`` flags a non-finite value anywhere in the fields.
    """

    def __init__(self, u, v, t: float, grid: Grid, blown_up: bool = False):
        self._hold(np.array((u, v), dtype=complex), t, grid, blown_up)

    @classmethod
    def of_pair(cls, fields: np.ndarray, t: float, grid: Grid,
                blown_up: bool = False) -> "SystemState":
        """A state whose ``fields`` is the given pair array itself."""
        state = cls.__new__(cls)
        state._hold(fields, t, grid, blown_up)
        return state

    def _hold(self, fields, t, grid, blown_up):
        rows = fields.shape[1:]
        if (len(fields) != 2 or len(rows) not in (grid.dim, grid.dim + 1)
                or rows[len(rows) - grid.dim:] != grid.shape):
            raise ValueError("field shapes do not match the grid")
        self.fields = fields
        self.u, self.v = fields
        self.t, self.grid, self.blown_up = t, grid, blown_up

    def copy(self) -> "SystemState":
        """Independent complex128 copy in C order.

        The in-place step writes complex values, and a batch's per-path sums
        need each path's nodes contiguous.
        """
        return SystemState.of_pair(np.array(self.fields, dtype=complex, order="C"),
                                   self.t, self.grid, self.blown_up)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.fields).all())


class Workspace:
    """Buffers a state reuses every step, so that N, L and the diagnostics allocate no field.

    Holds the free-flow multiplier exp(-1j*|k|^2*dt) (when ``dt`` is given),
    the 2/3-rule mask of kept modes, |k|^2 and the spectral-tail mask (as
    1.0/0.0), and four fields for a state of pair ``shape`` (default: one
    path on ``grid``), 88 bytes per node and path: two complex and a real
    field of the pair's shape, ``spectra``, ``factor`` and ``moduli``, and a
    real field of one component's shape, ``real``.  The diagnostics
    transform the live rows into ``spectra`` (which :func:`evolve` hands to
    its recorder) and sum powers in the real fields.  The N step keeps the
    two moduli in the real pair and the phase angle in the real component
    field, and writes each rotated row's unimodular factor into that row of
    ``factor``, using its real and imaginary parts as temporaries first.
    ``factor_of`` names the (fields, coupling) the factor serves: a
    :func:`strang_step` that revived no row sets it, and the next step of
    the same fields and coupling multiplies by the factor in its leading N.
    A fresh workspace, :func:`nonlinear_phase` with this workspace and a
    step that revived a row leave it unset (in a split step the chunk that
    did not revive never wrote the revived row's factor), and the leading N
    computes.  Between steps only the step may write the fields.  One
    workspace serves one state (a path or a batch) at a time.  ``rows``
    names the rows N, L and the diagnostics compute: both, unless
    :func:`evolve` marks one dead; a dead row's moduli stay zero, and its
    spectra and factor are never read (nor, being allocated empty, their
    pages touched).  ``runner`` runs each phase of a step: as one chunk,
    unless :func:`evolve` gives it a split runner.
    """

    def __init__(self, grid: Grid, dt: float | None = None,
                 shape: tuple[int, ...] | None = None):
        shape = (2,) + grid.shape if shape is None else shape
        # the multipliers carry one component's number of axes, so that one
        # path (P = 1) multiplies without broadcasting
        axes = (1,) * (len(shape) - 1 - grid.dim) + grid.shape
        self.dt = dt
        self.lin = None if dt is None else np.exp(-1j * grid.k_sq * dt).reshape(axes)
        self.keep = grid.dealias_mask().reshape(axes)
        self.k_sq = grid.k_sq.reshape(axes)
        # float, so that the diagnostics' product runs numpy's float loop
        # rather than its mixed bool/float one (the same bits)
        self.tail_mask = grid.tail_mask.reshape(axes).astype(float)
        self.rows = (0, 1)
        self.runner = _OneChunk()
        self.spectra = np.empty(shape, dtype=complex)
        self.factor = np.empty(shape, dtype=complex)
        self.factor_of = (None, None)
        self.moduli = np.zeros(shape)
        self.real = np.empty(shape[1:])
        # N's buffers with each component on one axis, for an N step on the
        # whole grid: numpy runs a loop over one strided axis faster than
        # over several
        self.flat_factor = self.factor.reshape(2, -1)
        self.flat_moduli = self.moduli.reshape(2, -1)
        self.flat_real = self.real.reshape(-1)


def _phase_multiplier(a_self: np.ndarray, a_other: np.ndarray, l_self: float,
                      l_mixed: float, sigma: float, out: np.ndarray,
                      tmp: np.ndarray, tmp2: np.ndarray) -> np.ndarray:
    """Real multiplier l_self*|f|^(2s) + l_mixed*|g|^(s+1)*|f|^(s-1) into ``out``.

    The singular factor |f|^(s-1) is taken as 0 where |f| <= _TINY_MODULUS;
    this is the package's only copy of that mask (the ground-state solver's
    right-hand side calls it too).  Written through ``out`` and the
    temporaries ``tmp``/``tmp2`` without allocating; sigma = 1 (every shipped
    config) squares instead of calling the general power.
    """
    if sigma == 1.0:
        np.square(a_self, out=out)
    else:
        np.power(a_self, 2.0 * sigma, out=out)
    out *= l_self
    if l_mixed != 0.0:
        # 1.0 where the mixed term is kept, 0.0 where it is dropped
        np.greater(a_self, _TINY_MODULUS, out=tmp)
        if sigma == 1.0:
            tmp *= a_other
            tmp *= a_other
        else:
            # clamping keeps |f|^(s-1) finite at the dropped nodes, so the
            # 0.0 there survives the product
            np.maximum(a_self, _TINY_MODULUS, out=tmp2)
            np.power(tmp2, sigma - 1.0, out=tmp2)
            tmp *= tmp2
            np.power(a_other, sigma + 1.0, out=tmp2)
            tmp *= tmp2
        tmp *= l_mixed
        out += tmp
    return out


def _rotate_rows(fields: np.ndarray, dt: float, coupling: Coupling, work: Workspace,
                 index) -> tuple[int, ...]:
    """N on the nodes ``index`` of the trailing grid axes; returns the rows it rotated.

    Those are ``work.rows``, or both rows when the revive rule fires on these
    nodes: the dead row's mixed term is 0 * |f|^(s+1) (0 * |f| * |f| at
    sigma = 1), which is NaN where that power of the live row is not finite.
    Each rotated row's unimodular factor is left in that row of
    ``work.factor`` on these nodes.
    """
    factor = work.factor[index]
    if index is Ellipsis:
        moduli, theta, e = work.flat_moduli, work.flat_real, work.flat_factor
    else:
        moduli, theta, e = work.moduli[index], work.real[index], factor
    pairs = ((coupling.l11, coupling.l12), (coupling.l22, coupling.l21))
    rows = work.rows
    if len(rows) == 2:
        np.abs(fields[index], out=work.moduli[index])
    else:
        (live,) = rows
        np.abs(fields[live][index], out=work.moduli[live][index])
        if pairs[1 - live][1] != 0.0:
            peak = moduli[live].max()
            if coupling.sigma != 1.0:
                peak = np.power(peak, coupling.sigma + 1.0)
            if not np.isfinite(peak):
                rows = (0, 1)
    for i in rows:
        l_self, l_mixed = pairs[i]
        _phase_multiplier(moduli[i], moduli[1 - i], l_self, l_mixed, coupling.sigma,
                          theta, e[i].real, e[i].imag)
        theta *= dt
        np.cos(theta, out=e[i].real)
        np.sin(theta, out=e[i].imag)
        f = fields[i][index]
        f *= factor[i]
    return rows


def nonlinear_phase(state: SystemState, dt: float, coupling: Coupling,
                    work: Workspace | None = None) -> SystemState:
    """Exact flow of the nonlinear sub-equation: pointwise phase rotation.

    u <- u * exp(i*dt*(l11|u|^(2s) + l12|v|^(s+1)|u|^(s-1))) and the symmetric
    update for v with (l22, l21), both from the moduli before the update.
    Moduli are pointwise invariant; t is left to the caller.

    Without ``work`` the input is left untouched and a new state is returned.
    With a :class:`Workspace` ``state`` itself is updated and returned.
    :func:`strang_step` runs the same rotation inside its phases.
    """
    if work is None:
        state, work = state.copy(), Workspace(state.grid, shape=state.fields.shape)
    work.factor_of = (None, None)
    work.rows = _rotate_rows(state.fields, dt, coupling, work, Ellipsis)
    return state


def strang_step(
    state: SystemState,
    dt: float,
    model: NoiseModel,
    increments: np.ndarray,
    coupling: Coupling,
    work: Workspace | None = None,
    dealias: bool = False,
) -> SystemState:
    """One full step N(dt/2) . L(dt) . W(dB) . N(dt/2); advances t by dt.

    ``state`` may be a batch, with ``increments`` of shape (P, K).  Without
    ``work`` the input is left untouched and a new state is returned.  With
    a :class:`Workspace` built for this ``dt`` and the state's shape (as
    ``evolve`` passes) ``state`` itself is advanced and returned.
    Non-finite output is flagged on the returned state instead of being
    raised.

    The step runs as five phases of the workspace's runner: rows (N, then
    the forward transform along the last axis), columns (the forward
    transform along the first axis), rows (the free-flow multiplier, the
    dealiasing mask, the inverse transform along the last axis), columns
    (the inverse transform along the first axis), then W as one call on
    the calling thread, then rows (N, the finite check).  One chunk
    transforms every axis in its row phases.  The leading N multiplies by
    the previous trailing N's factor when the workspace holds it (see
    :class:`Workspace`).
    """
    if work is None:
        state, work = state.copy(), Workspace(state.grid, dt, state.fields.shape)
    elif work.dt != dt:
        raise ValueError(f"workspace was built for dt={work.dt}, not dt={dt}")
    grid, fields, runner = state.grid, state.fields, work.runner
    reuse = work.factor_of[0] is fields and work.factor_of[1] is coupling
    revived, finite = [], []

    def rotate(index):
        rows = _rotate_rows(fields, 0.5 * dt, coupling, work, index)
        if rows != work.rows:
            revived.append(index)
        return rows

    def leading(index, axis):
        for i in work.rows if reuse else rotate(index):
            f = fields[i][index]
            if reuse:
                f *= work.factor[i][index]
            grid.fft(f, out=f, axis=axis)

    def free_flow(index, axis):
        for i in work.rows:
            f = fields[i][index]
            f *= work.lin[index]
            if dealias:
                f *= work.keep[index]
            grid.ifft(f, out=f, axis=axis)

    def trailing(index, axis):
        rotate(index)
        finite.append(bool(np.isfinite(fields[index]).all()))

    runner.run(leading, runner.rows)
    if revived:
        work.rows = (0, 1)
    runner.run(_transform(grid.fft, fields, work.rows), runner.cols)
    runner.run(free_flow, runner.rows)
    runner.run(_transform(grid.ifft, fields, work.rows), runner.cols)
    if model.K > 0:
        stratonovich_phase(fields, model, increments, out=fields)
    runner.run(trailing, runner.rows)
    if revived:
        work.rows = (0, 1)
    work.factor_of = (None, None) if revived else (fields, coupling)
    state.t = state.t + dt
    if not all(finite):
        state.blown_up = True
    return state


@dataclass
class TrajectoryResult:
    """Outcome of one integrated path.

    ``outcome`` is "completed", "blowup" (detector fired at ``t_star``) or
    "invalid" (non-finite state without a detector trigger).
    """

    outcome: str
    state: SystemState
    record: object
    t_star: float | None = None
    effective_T: float = 0.0
    dropped_remainder: float = 0.0
    steps: int = 0


def _node_sums(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Sum over each path's grid nodes: shape (P,) for a batch, (1,) for one path.

    Each path's nodes are summed as one contiguous row, so a path's sum is
    bitwise the same whatever the batch size.
    """
    return np.add.reduce(values.reshape(-1, grid.node_count), axis=1)


def _spectral_diagnostics(state: SystemState, work: Workspace | None = None):
    """(grad_norm_sq, spectral_tail_fraction) of each path, from one FFT per component.

    grad_norm_sq is ||grad u||^2 + ||grad v||^2 by Parseval; this is the one
    place the package computes it (the kinetic part of H, the interpolation
    ratio and the detector's initial value all come from here).  The tail
    fraction is the share of |u_hat|^2 + |v_hat|^2 carried by modes in the
    top third of the resolvable frequency range (resolution-loss gauge, in
    [0, 1]).  The work runs in the buffers of ``work``, or of a fresh
    :class:`Workspace` when none is given, in three phases of its runner
    (rows, columns, rows) over the live rows, as L transforms them: the
    transforms go into ``work.spectra`` and the powers into its real pair.
    A dead row's power is the zeros its transform would give.  The node
    sums run on the whole batch.  Returns two lists of floats with one entry
    per path (one entry for a single path).
    """
    grid = state.grid
    if work is None:
        work = Workspace(grid, shape=state.fields.shape)
    power, spectra, runner, total = work.moduli, work.spectra, work.runner, work.real
    rows = work.rows
    term = power[rows[0]]  # never a dead row, whose zeros N reads

    def powers(index, axis):
        for i in rows:
            p = power[i][index]
            np.abs(spectra[i][index], out=p)
            np.square(p, out=p)
        np.add(power[0][index], power[1][index], out=total[index])
        np.multiply(work.k_sq[index], total[index], out=term[index])

    runner.run(_transform(grid.fft, state.fields, rows, spectra), runner.rows)
    runner.run(_transform(grid.fft, spectra, rows), runner.cols)
    runner.run(powers, runner.rows)
    scale = grid.spacing**grid.dim / grid.node_count
    grad_norm_sq = [part * scale for part in _node_sums(term, grid).tolist()]
    whole = _node_sums(total, grid).tolist()
    tail = _node_sums(np.multiply(total, work.tail_mask, out=term), grid).tolist()
    # a path without spectral power (zero or non-finite) reads a zero tail;
    # per path in Python, which beats a masked ufunc on a few values
    tail = [part / w if w > 0 else 0.0 for part, w in zip(tail, whole)]
    return grad_norm_sq, tail


def _finite_paths(state: SystemState) -> np.ndarray:
    """One flag per path of a batch: all of its u and v values are finite."""
    fields = state.fields
    return np.isfinite(fields.reshape(2, fields.shape[1], -1)).all(axis=(0, 2))


def evolve(
    state0: SystemState,
    T: float,
    dt: float,
    model: NoiseModel,
    coupling: Coupling,
    *,
    seed=None,
    increments: np.ndarray | None = None,
    record_every: int = 1,
    detector=None,
    track_identities: bool = True,
    dealias: bool = False,
):
    """Integrate one path, or a batch of paths, from t=0 to T.

    Each path is recorded every ``record_every`` steps.  The Wiener
    increments driving a path come from ``increments`` (shape (n_steps, K))
    when given, else from numpy's PCG64 generator seeded with ``seed``
    (``np.random.default_rng(seed)``).  The blow-up ``detector``, called
    every step with (grad_norm_sq, tail_fraction), turns a trigger into a
    normal "blowup" outcome; a non-finite state without a trigger is
    "invalid".  If T/dt is not an integer the last partial step is dropped
    and reported via ``dropped_remainder``.

    A batch is a ``state0`` whose fields carry an axis of P paths after the
    component axis.  Then ``seed`` is a sequence with one seed per path,
    ``increments`` has shape (P, n_steps, K), and ``detector`` is one
    callable for every path or a sequence of P.  The batch advances as one
    array; a path that reaches blowup or invalid leaves it with its record.
    One path returns a :class:`TrajectoryResult`, a batch a list of P in path
    order, each bitwise equal to the result of that path evolved alone.
    That promise does not cover the sign bits of NaN in the final state of
    an "invalid" path: a transform of a batch row can propagate NaN signs
    differently, so alone and batched they may differ at some nodes.  Its
    record and outcome do match.

    Identical (seed, config) pairs reproduce bit-identical records, whether
    or not the step is split over two threads (see the module docstring).
    """
    if T < 0 or dt <= 0:
        raise ValueError("need T >= 0 and dt > 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n_steps = int(np.floor(T / dt + 1e-9))
    effective_T = n_steps * dt
    dropped = max(T - effective_T, 0.0)
    if dropped > 1e-9 * max(dt, 1.0):
        warnings.warn(
            f"T={T} is not a multiple of dt={dt}; integrating to {effective_T}",
            stacklevel=2,
        )

    grid = state0.grid
    batched = state0.fields.ndim > grid.dim + 1
    n_paths = state0.fields.shape[1] if batched else 1

    def per_path(value, name):
        if not batched:
            return [value]
        value = list(value)
        if len(value) != n_paths:
            raise ValueError(f"{name} needs one entry per path ({n_paths}), got {len(value)}")
        return value

    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        expected = (n_paths,) * batched + (n_steps, model.K)
        if increments.shape != expected:
            raise ValueError(f"increments must have shape {expected}, got {increments.shape}")
        increments = increments.reshape(n_paths, n_steps, model.K)
        rngs = None
    else:
        rngs = [np.random.default_rng(s)
                for s in (per_path(seed, "seed") if seed is not None else [None] * n_paths)]
    detectors = ([detector] * n_paths if detector is None or callable(detector)
                 else per_path(detector, "detector"))
    detecting = any(d is not None for d in detectors)

    from .observables import TrajectoryRecorder  # observables imports this module

    # the batch advances a private copy in place, through one workspace; path
    # axis row r of its fields, increments, generators and detectors is path
    # live[r], and the rows close up when a path leaves
    state = state0.copy()
    if not batched:
        state = SystemState.of_pair(state.fields[:, None], state.t, grid)
    live = list(range(n_paths))
    work = Workspace(grid, dt, state.fields.shape)
    # a row zero in every path is dead, unless non-finite coefficients NaN it
    rows = tuple(i for i, f in enumerate(state.fields) if f.any())
    if len(rows) == 1 and np.isfinite(coupling.lam).all():
        work.rows = rows
    recorder = TrajectoryRecorder(model, coupling, track_identities=track_identities,
                                  paths=n_paths)
    # a revived row is NaN only in paths that leave unrecorded, as invalid
    recorder.rows = work.rows
    results: list[TrajectoryResult | None] = [None] * n_paths
    # the diagnostics' spectra of the current state, for the recorder's
    # gradients; None once a step has moved the state on
    spectra = None

    def path_state(r):
        """A state that views batch row ``r`` of the fields, at the batch's time."""
        return SystemState.of_pair(state.fields[:, r], state.t, grid)

    def leave(rows, outcome, steps):
        """Finish the paths at batch ``rows`` and drop them from the batch."""
        nonlocal state, live, work, increments, rngs, detectors, spectra
        for r in rows:
            final = SystemState.of_pair(state.fields[:, r].copy(), state.t, grid,
                                        blown_up=outcome == "invalid")
            results[live[r]] = TrajectoryResult(
                outcome, final, recorder.finalize(r),
                t_star=None if outcome == "completed" else state.t,
                effective_T=effective_T, dropped_remainder=dropped, steps=steps)
        keep = np.ones(len(live), dtype=bool)
        keep[rows] = False
        state = SystemState.of_pair(state.fields[:, keep], state.t, grid)
        if increments is not None:
            increments = increments[keep]
        else:
            rngs = [r for r, kept in zip(rngs, keep) if kept]
        live = [p for p, kept in zip(live, keep) if kept]
        detectors = [d for d, kept in zip(detectors, keep) if kept]
        recorder.keep(keep)
        if spectra is not None:
            spectra = spectra[:, keep]
        if live:
            old = work
            work = Workspace(grid, dt, state.fields.shape)
            work.rows, work.runner = old.rows, old.runner
            # the staying paths keep their factor, so that their next leading
            # N multiplies by it, as each path alone does
            if old.factor_of[0] is not None:
                for i in work.rows:
                    work.factor[i] = old.factor[i][keep]
                work.factor_of = (state.fields, coupling)

    # the helper thread of a split runner lives only inside this block
    with _runner(grid) as runner:
        work.runner = runner
        grad, tail = _spectral_diagnostics(state, work)
        spectra = work.spectra
        for r in range(n_paths):
            recorder.record(path_state(r), grad[r], tail[r], row=r, spectra=spectra[:, r])

        for j in range(n_steps):
            if increments is not None:
                inc = increments[:, j]
            else:
                inc = np.empty((len(rngs), model.K))
                for r, gen in enumerate(rngs):
                    inc[r] = sample_increments(model.K, dt, gen)
            recorder.on_step(state, inc, spectra)
            strang_step(state, dt, model, inc, coupling, work=work, dealias=dealias)
            spectra = None

            if state.blown_up:
                leave(np.flatnonzero(~_finite_paths(state)), "invalid", j + 1)
                if not live:
                    break

            due = (j + 1) % record_every == 0 or j == n_steps - 1
            if not (detecting or due):
                continue
            grad, tail = _spectral_diagnostics(state, work)
            spectra = work.spectra
            fired = []
            for r, detect in enumerate(detectors):
                hit = detect is not None and bool(detect(grad[r], tail[r]))
                if hit or due:
                    recorder.record(path_state(r), grad[r], tail[r], row=r,
                                    spectra=spectra[:, r])
                if hit:
                    fired.append(r)
            if fired:
                leave(fired, "blowup", j + 1)
                if not live:
                    break

    if live:
        leave(range(len(live)), "completed", n_steps)
    return results if batched else results[0]
