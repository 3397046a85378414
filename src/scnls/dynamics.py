"""Time integration of the coupled system by operator splitting.

The system integrated pathwise is

    i du + (Lap u + (l11 |u|^(2s) + l12 |v|^(s+1) |u|^(s-1)) u) dt = u o phi_1 dW
    i dv + (Lap v + (l22 |v|^(2s) + l21 |u|^(s+1) |v|^(s-1)) v) dt = v o phi_2 dW

with s = sigma and a real 2x2 coefficient matrix.  One step of size dt is,
from left to right, L(dt/2) . W(dB) . N(dt) . L(dt/2): L is the exact unitary
free flow on the grid, W the exact pathwise noise phase and N the exact
nonlinear phase rotation (its multipliers are real, so |u| and |v| are
pointwise invariant, and N commutes with W).  Every sub-step preserves the
discrete mass of each component to round-off, and the deterministic part is
Strang splitting (second order).  Where N's angle is below 2^-27 in
modulus, its cos and sin round to 1 and to the angle itself, so on a chunk
of at least ``_MASKED_TRIG_NODES`` nodes N writes those and takes cos and
sin only at the other nodes, with the same bits.

Between steps the state is held in Fourier space (Weideman & Herbst 1986;
Bao, Jin & Markowich 2002) as w_hat, its transform before the trailing
L(dt/2), which merges with the next step's leading one.  The diagnostics
read |w_hat| = |u_hat| and take no transform.  The physical state is
materialised only for the Ito terms of a tracked noisy step, for a path
that leaves and for a record of a state that fills a recorder block, into
other buffers than w_hat.  Any other record stages the path's transforms
from w_hat on the recorder, which computes its staged states a block at a
time (see :mod:`scnls.observables`).  So a path's bits do not depend on
how often it is recorded or diagnosed.

A :class:`SystemState` holds the pair as one array, component axis first:
shape ``(2, *grid.shape)``, or ``(2, P, *grid.shape)`` for a batch of P
paths that :func:`evolve` advances (a single run is P = 1).  N and the
transforms loop over the live rows (on a 2D grid one transform of the pair
runs slower than two of one component), and W is one numpy call over the
pair.  Every operation is elementwise, a transform of the trailing grid
axes or a sum over one component's nodes in one path, so each path's bits
do not depend on the batch it was run in.

A row that is zero in every path of the initial batch stays zero in every
bit (each term of its equation carries it), so :func:`evolve` marks it dead
on the :class:`Workspace` once per run, and the step, the diagnostics and
the recorder skip it; every output is bitwise what computing on its zeros
gives.  With a nonzero mixed coefficient the live row f must also meet
2 node_count^2 S < float_max^min(1, 2/(s+1)) in every path, S its node sum
of |f|^2: the scheme conserves S, |f|^2 <= S and a transform's partial sums
stay below node_count sqrt(S), so N's 0 * |f|^(s+1) never meets inf.  From
a step that leaves the batch non-finite on, both rows are computed.

A step and the diagnostics are written once, as phases over chunks of the
grid (see :func:`strang_step` and :mod:`scnls.phases`).  :func:`evolve` runs
a large 2D state's phases over two halves of the grid on two threads, and
any other state's as one chunk, with bitwise the same results.  They
allocate no field: they reuse the buffers of one :class:`Workspace`.
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

# below this |angle| cos rounds to 1.0 and sin to the angle, sign bit
# included (+-0 and subnormals too); from 2^-27 on, cos is 1.0 only at some
_TRIVIAL_ANGLE = 2.0**-27
# N masks out trivial angles on chunks of at least this many nodes (paths
# included).  Measured on a 2-vCPU x86-64 host, N masked against cos and sin
# at every node: a 1D pair (sech, Gaussian) on n nodes, n = 512 1.24x,
# 1024 1.1x, 2048 0.96x, 4096 0.94x, 8192 0.93x; collapse_2d's 256^2 state
# at t = 0.125, 0.63x as one chunk and 0.57x on a half
_MASKED_TRIG_NODES = 4096


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
    """Buffers a state reuses every step, so that the step and the diagnostics allocate no field.

    Holds the free-flow multipliers of ``dt`` and ``dt/2`` (``lin``,
    ``half``; None without ``dt``), the 2/3-rule mask, |k|^2 and the
    spectral-tail mask (as 1.0/0.0), and, for a state of pair ``shape``
    (default: one path on ``grid``), 89 bytes per node and path: the complex
    pairs ``held`` (the state's w_hat, written only by :func:`_enter` and the
    step, which works in it in place; without ``dt``, ``spectra`` itself)
    and ``spectra`` (the state's transforms after :func:`_materialise`; in a
    step, N's unimodular factor of each rotated row, its parts first
    temporaries), the real pair ``moduli``, a real component field ``real``
    (N's angle) and a bool component field ``turning`` (N's mask of the
    angles that take cos and sin).  One workspace serves one state (a path
    or a batch) at a time.  ``rows`` names the rows computed: both, unless
    :func:`evolve` marks one dead; a dead row's moduli stay zero, nothing
    reads its held values (W writes +-0, or NaN) until a non-finite step,
    and its spectra are never read (nor, allocated empty, their pages
    touched).  ``runner`` runs each phase: as one chunk, unless
    :func:`evolve` gives it a split runner.
    """

    def __init__(self, grid: Grid, dt: float | None = None,
                 shape: tuple[int, ...] | None = None):
        shape = (2,) + grid.shape if shape is None else shape
        # the multipliers carry one component's number of axes, so that one
        # path (P = 1) multiplies without broadcasting
        axes = (1,) * (len(shape) - 1 - grid.dim) + grid.shape
        self.dt = dt
        self.lin, self.half = (None, None) if dt is None else (
            np.exp(-1j * grid.k_sq * dt).reshape(axes),
            np.exp(-0.5j * grid.k_sq * dt).reshape(axes))
        self.keep = grid.dealias_mask().reshape(axes)
        self.k_sq = grid.k_sq.reshape(axes)
        # float, so that the diagnostics' product runs numpy's float loop
        # rather than its mixed bool/float one (the same bits)
        self.tail_mask = grid.tail_mask.reshape(axes).astype(float)
        self.rows = (0, 1)
        self.runner = _OneChunk()
        self.spectra = np.empty(shape, dtype=complex)
        # zeros, which a dead row keeps through every step
        self.held = self.spectra if dt is None else np.zeros(shape, dtype=complex)
        self.moduli = np.zeros(shape)
        self.real = np.empty(shape[1:])
        self.turning = np.empty(shape[1:], dtype=bool)
        # N's buffers with each component on one axis, for an N step on the
        # whole grid: numpy runs a loop over one strided axis faster than
        # over several
        self.flat_spectra = self.spectra.reshape(2, -1)
        self.flat_moduli = self.moduli.reshape(2, -1)
        self.flat_real = self.real.reshape(-1)
        self.flat_turning = self.turning.reshape(-1)


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
    if l_self != 1.0:  # x * 1.0 is x in every bit, so a unit coefficient is skipped
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
                 index) -> None:
    """N of the rows ``work.rows`` on the nodes ``index`` of the trailing grid axes.

    Each rotated row's unimodular factor is left in that row of
    ``work.spectra`` on these nodes.

    Trivial angles: where |theta| < 2^-27 (``_TRIVIAL_ANGLE``), cos(theta)
    rounds to 1.0 and sin(theta) to theta itself, sign bit included.  So a
    chunk of at least ``_MASKED_TRIG_NODES`` nodes writes (1, theta) and
    takes cos and sin only at the other nodes (NaN and +-inf among them),
    marked in ``work.turning``; a smaller one takes them at every node.  Both
    give the same bits.
    """
    factor = work.spectra[index]
    if index is Ellipsis:
        moduli, theta, e = work.flat_moduli, work.flat_real, work.flat_spectra
        turning = work.flat_turning
    else:
        moduli, theta, e = work.moduli[index], work.real[index], factor
        turning = work.turning[index]
    pairs = ((coupling.l11, coupling.l12), (coupling.l22, coupling.l21))
    rows = work.rows
    if len(rows) == 2:
        np.abs(fields[index], out=work.moduli[index])
    else:
        (live,) = rows
        np.abs(fields[live][index], out=work.moduli[live][index])
    for i in rows:
        l_self, l_mixed = pairs[i]
        _phase_multiplier(moduli[i], moduli[1 - i], l_self, l_mixed, coupling.sigma,
                          theta, e[i].real, e[i].imag)
        theta *= dt
        if theta.size < _MASKED_TRIG_NODES:
            np.cos(theta, out=e[i].real)
            np.sin(theta, out=e[i].imag)
        else:
            # turning = not (-bound < theta < bound), so NaN and +-inf turn:
            # theta < bound, narrowed to theta > -bound where set, inverted
            np.less(theta, _TRIVIAL_ANGLE, out=turning)
            np.greater(theta, -_TRIVIAL_ANGLE, out=turning, where=turning)
            np.logical_not(turning, out=turning)
            e[i].real.fill(1.0)
            np.copyto(e[i].imag, theta)
            np.cos(theta, out=e[i].real, where=turning)
            np.sin(theta, out=e[i].imag, where=turning)
        f = fields[i][index]
        f *= factor[i]


def nonlinear_phase(state: SystemState, dt: float, coupling: Coupling) -> SystemState:
    """Exact flow of the nonlinear sub-equation: pointwise phase rotation.

    u <- u * exp(i*dt*(l11|u|^(2s) + l12|v|^(s+1)|u|^(s-1))) and the symmetric
    update for v with (l22, l21), both from the moduli before the update.
    Moduli are pointwise invariant; t is left to the caller.  The input is
    left untouched and a new state is returned; :func:`strang_step` runs the
    same rotation inside its phases.
    """
    state, work = state.copy(), Workspace(state.grid, shape=state.fields.shape)
    _rotate_rows(state.fields, dt, coupling, work, Ellipsis)
    return state


def _enter(state: SystemState, work: Workspace) -> None:
    """Enter the held form: the live rows' transforms into ``work.spectra``, w_hat = them / half."""
    grid, runner, rows, spectra, half = (state.grid, work.runner, work.rows,
                                         work.spectra, work.half)

    def unwind(index, axis):
        for i in rows:
            np.divide(spectra[i][index], half[index], out=work.held[i][index])

    runner.run(_transform(grid.fft, state.fields, rows, spectra), runner.rows)
    runner.run(_transform(grid.fft, spectra, rows), runner.cols)
    if half is not None:
        runner.run(unwind, runner.rows)


def _materialise(state: SystemState, work: Workspace) -> None:
    """The state from w_hat, which it only reads: spectra = half * w_hat, fields their inverse."""
    grid, runner, rows, fields = state.grid, work.runner, work.rows, state.fields

    def unfold(index, axis):
        for i in rows:
            s = np.multiply(work.held[i][index], work.half[index], out=work.spectra[i][index])
            grid.ifft(s, out=fields[i][index], axis=axis)

    runner.run(unfold, runner.rows)
    runner.run(_transform(grid.ifft, fields, rows), runner.cols)


def strang_step(
    state: SystemState,
    dt: float,
    model: NoiseModel,
    increments: np.ndarray,
    coupling: Coupling,
    work: Workspace | None = None,
    dealias: bool = False,
) -> SystemState:
    """One full step L(dt/2) . W(dB) . N(dt) . L(dt/2); advances t by dt.

    ``state`` may be a batch, with ``increments`` of shape (P, K).  Without
    ``work`` a copy of the input is held (:func:`_enter`), stepped,
    materialised and returned.  A :class:`Workspace` for this ``dt`` and
    shape that holds the state (as ``evolve``'s) has its w_hat advanced in
    place; ``state.fields`` stay as they were until :func:`_materialise`.
    Non-finite output is flagged on the returned state instead of raised.

    Four phases of the workspace's runner, all in place in w_hat: rows (the
    multiplier of dt and the dealiasing mask, the inverse transform along
    the last axis), columns (along the first axis), W on the calling thread,
    rows (N, the finite check, the forward transform along the last axis)
    and columns.  One chunk transforms every axis in its row phases.
    """
    standalone = work is None
    if standalone:
        state, work = state.copy(), Workspace(state.grid, dt, state.fields.shape)
        _enter(state, work)
    elif work.dt != dt:
        raise ValueError(f"workspace was built for dt={work.dt}, not dt={dt}")
    grid, held, runner, rows = state.grid, work.held, work.runner, work.rows
    finite = []

    def free_flow(index, axis):
        for i in rows:
            h = held[i][index]
            h *= work.lin[index]
            if dealias:
                h *= work.keep[index]
            grid.ifft(h, out=h, axis=axis)

    def rotate(index, axis):
        _rotate_rows(held, dt, coupling, work, index)
        # a row N skips is dead: finite unless W's increments are not (then no row is)
        for i in rows:
            h = held[i][index]
            finite.append(bool(np.isfinite(h).all()))
            grid.fft(h, out=h, axis=axis)

    runner.run(free_flow, runner.rows)
    runner.run(_transform(grid.ifft, held, rows), runner.cols)
    if model.K > 0:
        stratonovich_phase(held, model, increments, out=held)
    runner.run(rotate, runner.rows)
    runner.run(_transform(grid.fft, held, rows), runner.cols)
    state.t = state.t + dt
    if not all(finite):
        state.blown_up = True
    if standalone:
        _materialise(state, work)
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
    """(grad_norm_sq, spectral_tail_fraction) of each path, from the powers of its spectrum.

    grad_norm_sq is ||grad u||^2 + ||grad v||^2 by Parseval; this is the one
    place the package computes it (the kinetic part of H, the interpolation
    ratio and the detector's initial value all come from here).  The tail
    fraction is the share of |u_hat|^2 + |v_hat|^2 carried by modes in the
    top third of the resolvable frequency range (resolution-loss gauge, in
    [0, 1]).  The powers are |w_hat|^2 = |u_hat|^2 of ``work.held``, so a
    held state (as in ``evolve``) takes no transform; a workspace without
    ``dt``, or a fresh one, first takes the state's (:func:`_enter`).  The
    live rows' powers go into its real pair in one row phase (a dead row's
    are zeros), and the node sums run on the whole batch.  Returns two lists
    of floats with one entry per path.
    """
    grid = state.grid
    if work is None:
        work = Workspace(grid, shape=state.fields.shape)
    if work.dt is None:
        _enter(state, work)
    power, held, runner, total = work.moduli, work.held, work.runner, work.real
    rows = work.rows
    term = power[rows[0]]  # never a dead row, whose zeros N reads

    def powers(index, axis):
        t = total[index]
        for i in rows:
            h, p = held[i][index], power[i][index]
            np.square(h.real, out=p)
            p += np.square(h.imag, out=t)
        np.add(power[0][index], power[1][index], out=t)
        np.multiply(work.k_sq[index], t, out=term[index])

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


def _step_count(T: float, dt: float) -> int:
    """Whole steps of size dt up to T, with 1e-9 of a step of slack for T's round-off."""
    return int(np.floor(T / dt + 1e-9))


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

    Each path is recorded every ``record_every`` steps.  A path's K Wiener
    increments per step come from one (n_steps, K) array, held for the
    whole run: ``increments`` when given, else one ``sample_increments``
    call of n_steps * K on its own ``np.random.default_rng(seed)`` (PCG64
    draws the same numbers at once as step by step), or none with K = 0.
    Step j reads its row j.  That costs 8 * K bytes per path and step: 32 kB
    for ``stochastic_pair.ini`` to T = 2.  The blow-up ``detector``, called
    every step with (grad_norm_sq, tail_fraction), turns a trigger into a
    normal "blowup" outcome; a non-finite state without a trigger is
    "invalid".
    If T/dt is not an integer the last partial step is dropped and reported
    via ``dropped_remainder``.

    A batch is a ``state0`` whose fields carry an axis of P paths after the
    component axis.  Then ``seed`` is a sequence with one seed per path,
    ``increments`` has shape (P, n_steps, K), and ``detector`` is one
    callable for every path or a sequence of P.  The batch advances as one
    array; a path that reaches blowup or invalid leaves it with its record.
    One path returns a :class:`TrajectoryResult`, a batch a list of P in path
    order, each bitwise equal to the result of that path evolved alone (but
    for the sign bits of NaN in the final state of an "invalid" path, which
    a transform of a batch row can propagate differently).  From a step that
    leaves a path non-finite on, both rows are computed, so an "invalid"
    path's final dead row is what W made of it, alone or in a batch.

    The batch is held in Fourier space between steps (module docstring), so
    a path's bits depend neither on ``record_every``, nor on a detector that
    does not fire, nor on whether the step is split over two threads.
    """
    if T < 0 or dt <= 0:
        raise ValueError("need T >= 0 and dt > 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    n_steps = _step_count(T, dt)
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

    if increments is None:
        seeds = per_path(seed, "seed") if seed is not None else [None] * n_paths
        # one call per path for its whole run; with K = 0 it would draw nothing
        increments = np.empty((n_paths, n_steps, 0)) if model.K == 0 else np.array(
            [sample_increments(n_steps * model.K, dt, np.random.default_rng(s))
             for s in seeds]).reshape(n_paths, n_steps, model.K)
    else:
        increments = np.asarray(increments, dtype=float)
        expected = (n_paths,) * batched + (n_steps, model.K)
        if increments.shape != expected:
            raise ValueError(f"increments must have shape {expected}, got {increments.shape}")
        increments = increments.reshape(n_paths, n_steps, model.K)
    detectors = ([detector] * n_paths if detector is None or callable(detector)
                 else per_path(detector, "detector"))
    detecting = any(d is not None for d in detectors)

    from .observables import TrajectoryRecorder  # observables imports this module

    # the batch advances a private copy in place, through one workspace; path
    # axis row r of its fields, increments and detectors is path live[r], and
    # the rows close up when a path leaves
    state = state0.copy()
    if not batched:
        state = SystemState.of_pair(state.fields[:, None], state.t, grid)
    live = list(range(n_paths))
    work = Workspace(grid, dt, state.fields.shape)
    # a row zero in every path is dead, unless a non-finite coefficient or a
    # live row past the bound (module docstring) can NaN its mixed term
    rows = tuple(i for i, f in enumerate(state.fields) if f.any())
    if len(rows) == 1 and np.isfinite(coupling.lam).all():
        (row,) = rows
        with np.errstate(over="ignore"):  # an overflowing sum fails the bound
            sums = (0.0 if coupling.lam[1 - row, row] == 0.0
                    else _node_sums(np.square(np.abs(state.fields[row])), grid).max())
        bound = np.finfo(float).max ** min(1.0, 2.0 / (coupling.sigma + 1.0))
        if sums < bound / (2.0 * grid.node_count**2):
            work.rows = rows
    recorder = TrajectoryRecorder(model, coupling, track_identities=track_identities,
                                  paths=n_paths)
    # the staying paths' dead row stays zero after a non-finite step
    recorder.rows = work.rows
    results: list[TrajectoryResult | None] = [None] * n_paths
    current = True  # the fields and work.spectra hold the state, not only w_hat

    def materialise():
        nonlocal current
        if not current:
            _materialise(state, work)
            current = True

    def path_state(r):
        """A state that views batch row ``r`` of the fields, at the batch's time."""
        return SystemState.of_pair(state.fields[:, r], state.t, grid)

    def record(r, grad, tail, leaving):
        """A row of batch row ``r``: staged from its held pair, unless the
        state fills a block or the path is ``leaving`` (the batch is then
        materialised anyway), when it is recorded from the materialised batch."""
        if recorder.capacity > 1 and not leaving:
            recorder.stage(work.held[:, r], work.half.reshape(grid.shape), state.t,
                           grad, tail, row=r)
        else:
            materialise()
            recorder.record(path_state(r), grad, tail, row=r, spectra=work.spectra[:, r])

    def leave(rows, outcome, steps):
        """Finish the paths at batch ``rows`` and drop them from the batch."""
        nonlocal state, live, work, increments, detectors
        materialise()
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
        increments = increments[keep]
        live = [p for p, kept in zip(live, keep) if kept]
        detectors = [d for d, kept in zip(detectors, keep) if kept]
        recorder.keep(keep)
        if live:
            old = work
            work = Workspace(grid, dt, state.fields.shape)
            work.rows, work.runner = old.rows, old.runner
            for i in work.rows:  # the staying paths keep their state
                work.held[i] = old.held[i][keep]
                work.spectra[i] = old.spectra[i][keep]

    # the helper thread of a split runner lives only inside this block
    with _runner(grid) as runner:
        work.runner = runner
        _enter(state, work)
        grad, tail = _spectral_diagnostics(state, work)
        for r in range(n_paths):
            recorder.record(path_state(r), grad[r], tail[r], row=r,
                            spectra=work.spectra[:, r])

        for j in range(n_steps):
            inc = increments[:, j]
            if recorder.track and model.K:
                materialise()
                recorder.on_step(state, inc, work.spectra)
            strang_step(state, dt, model, inc, coupling, work=work, dealias=dealias)
            current = False

            if state.blown_up:
                work.rows = (0, 1)
                materialise()
                leave(np.flatnonzero(~_finite_paths(state)), "invalid", j + 1)
                if not live:
                    break

            due = (j + 1) % record_every == 0 or j == n_steps - 1
            if not (detecting or due):
                continue
            grad, tail = _spectral_diagnostics(state, work)
            fired = []
            for r, detect in enumerate(detectors):
                hit = detect is not None and bool(detect(grad[r], tail[r]))
                if hit or due:
                    record(r, grad[r], tail[r], hit or j == n_steps - 1)
                if hit:
                    fired.append(r)
            if fired:
                leave(fired, "blowup", j + 1)
                if not live:
                    break

    if live:
        leave(range(len(live)), "completed", n_steps)
    return results if batched else results[0]
