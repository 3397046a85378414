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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .noise import NoiseModel, sample_increments, stratonovich_phase

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


@dataclass
class SystemState:
    """The complex field pair and current time."""

    u: np.ndarray
    v: np.ndarray
    t: float
    grid: Grid
    blown_up: bool = False

    def __post_init__(self):
        if self.u.shape != self.grid.shape or self.v.shape != self.grid.shape:
            raise ValueError("field shapes do not match the grid")

    def copy(self) -> "SystemState":
        """Independent complex128 copy (the in-place step writes complex values)."""
        return SystemState(self.u.astype(complex), self.v.astype(complex), self.t,
                           self.grid, self.blown_up)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v)))


class Workspace:
    """Buffers a path reuses every step, so that N, L and the diagnostics allocate no field.

    Holds the free-flow multiplier exp(-1j*|k|^2*dt) (when ``dt`` is given),
    the 2/3-rule mask of kept modes, one complex scratch field and three real
    scratch fields.  The N step keeps the two moduli and the phase angle in
    the real fields and uses the real and imaginary parts of the complex one
    as temporaries before it writes the unimodular factor there; the
    diagnostics transform into the complex field and sum powers in the real
    ones.  One workspace serves one path at a time.
    """

    def __init__(self, grid: Grid, dt: float | None = None):
        self.dt = dt
        self.lin = None if dt is None else np.exp(-1j * grid.k_sq * dt)
        self.keep = grid.dealias_mask()
        self.scratch = np.empty(grid.shape, dtype=complex)
        self.real = tuple(np.empty(grid.shape) for _ in range(3))


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


def _rotate(f: np.ndarray, a_self: np.ndarray, a_other: np.ndarray, l_self: float,
            l_mixed: float, sigma: float, dt: float, work: Workspace) -> None:
    """f <- f * exp(1j*dt*multiplier), in place."""
    theta = work.real[2]
    e = work.scratch
    _phase_multiplier(a_self, a_other, l_self, l_mixed, sigma, theta, e.real, e.imag)
    theta *= dt
    np.cos(theta, out=e.real)
    np.sin(theta, out=e.imag)
    f *= e


def nonlinear_phase(state: SystemState, dt: float, coupling: Coupling,
                    work: Workspace | None = None) -> SystemState:
    """Exact flow of the nonlinear sub-equation: pointwise phase rotation.

    u <- u * exp(i*dt*(l11|u|^(2s) + l12|v|^(s+1)|u|^(s-1))) and the symmetric
    update for v with (l22, l21), both from the moduli before the update.
    Moduli are pointwise invariant; t is left to the caller.

    Without ``work`` the input is left untouched and a new state is returned.
    With a :class:`Workspace` (as ``evolve`` passes) ``state`` itself is
    updated and returned.
    """
    if work is None:
        state, work = state.copy(), Workspace(state.grid)
    au, av, _ = work.real
    np.abs(state.u, out=au)
    np.abs(state.v, out=av)
    s = coupling.sigma
    _rotate(state.u, au, av, coupling.l11, coupling.l12, s, dt, work)
    _rotate(state.v, av, au, coupling.l22, coupling.l21, s, dt, work)
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

    Without ``work`` the input is left untouched and a new state is returned.
    With a :class:`Workspace` built for this ``dt`` (as ``evolve`` passes)
    ``state`` itself is advanced and returned.  Non-finite output is flagged
    on the returned state instead of being raised.
    """
    if work is None:
        state, work = state.copy(), Workspace(state.grid, dt)
    elif work.dt != dt:
        raise ValueError(f"workspace was built for dt={work.dt}, not dt={dt}")
    grid = state.grid
    nonlinear_phase(state, 0.5 * dt, coupling, work)

    for f in (state.u, state.v):
        grid.fft(f, out=f)
        f *= work.lin
        if dealias:
            f *= work.keep
        grid.ifft(f, out=f)

    if model.K > 0:
        state.u = stratonovich_phase(state.u, 1, model, increments)
        state.v = stratonovich_phase(state.v, 2, model, increments)

    nonlinear_phase(state, 0.5 * dt, coupling, work)
    state.t = state.t + dt
    if not state.is_finite():
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


def _spectral_diagnostics(state: SystemState,
                          work: Workspace | None = None) -> tuple[float, float]:
    """(grad_norm_sq, spectral_tail_fraction) from one FFT per component.

    grad_norm_sq is ||grad u||^2 + ||grad v||^2 by Parseval; this is the one
    place the package computes it (the kinetic part of H, the interpolation
    ratio and the detector's initial value all come from here).  The tail
    fraction is the share of |u_hat|^2 + |v_hat|^2 carried by modes in the
    top third of the resolvable frequency range (resolution-loss gauge, in
    [0, 1]).  The transforms and powers go through the buffers of ``work``,
    or of a fresh :class:`Workspace` when none is given.
    """
    grid = state.grid
    if work is None:
        work = Workspace(grid)
    f_hat = work.scratch
    power, term, _ = work.real
    grid.fft(state.u, out=f_hat)
    np.abs(f_hat, out=power)
    np.square(power, out=power)
    grid.fft(state.v, out=f_hat)
    np.abs(f_hat, out=term)
    np.square(term, out=term)
    power += term
    scale = grid.spacing**grid.dim / grid.node_count
    grad_norm_sq = float(np.multiply(grid.k_sq, power, out=term).sum() * scale)
    total = float(power.sum())
    tail = 0.0
    if total > 0:
        tail = float(np.multiply(power, grid.tail_mask, out=term).sum() / total)
    return grad_norm_sq, tail


def evolve(
    state0: SystemState,
    T: float,
    dt: float,
    model: NoiseModel,
    coupling: Coupling,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    increments: np.ndarray | None = None,
    record_every: int = 1,
    detector=None,
    track_identities: bool = True,
    dealias: bool = False,
) -> TrajectoryResult:
    """Integrate one path from t=0 to T, recording every ``record_every`` steps.

    The Wiener increments driving the path come from ``increments`` (shape
    (n_steps, K)) when given, else are sampled from ``rng`` (or a fresh
    generator seeded with ``seed``).  The blow-up ``detector``, called every
    step with (grad_norm_sq, tail_fraction), turns a trigger into a normal
    "blowup" outcome.  If T/dt is not an integer the last partial step is
    dropped and reported via ``dropped_remainder``.

    Identical (seed, config) pairs reproduce bit-identical records.
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

    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, model.K):
            raise ValueError(
                f"increments must have shape {(n_steps, model.K)}, got {increments.shape}"
            )
    elif rng is None:
        rng = np.random.default_rng(seed)

    from .observables import TrajectoryRecorder  # observables imports this module

    recorder = TrajectoryRecorder(model, coupling, track_identities=track_identities)

    # the path advances a private copy in place, through one workspace
    state = state0.copy()
    work = Workspace(state.grid, dt)

    diag = _spectral_diagnostics(state, work)
    recorder.record(state, *diag)
    if n_steps == 0:
        return TrajectoryResult("completed", state, recorder.finalize(),
                                effective_T=0.0, dropped_remainder=dropped, steps=0)

    for j in range(n_steps):
        inc = increments[j] if increments is not None else sample_increments(model.K, dt, rng)
        recorder.on_step(state, inc)
        strang_step(state, dt, model, inc, coupling, work=work, dealias=dealias)

        if state.blown_up:
            return TrajectoryResult("invalid", state, recorder.finalize(), t_star=state.t,
                                    effective_T=effective_T, dropped_remainder=dropped,
                                    steps=j + 1)

        due = (j + 1) % record_every == 0 or j == n_steps - 1
        if detector is None and not due:
            continue
        diag = _spectral_diagnostics(state, work)
        fired = bool(detector(*diag)) if detector is not None else False
        if fired or due:
            recorder.record(state, *diag)
        if fired:
            return TrajectoryResult("blowup", state, recorder.finalize(), t_star=state.t,
                                    effective_T=effective_T, dropped_remainder=dropped,
                                    steps=j + 1)

    return TrajectoryResult("completed", state, recorder.finalize(),
                            effective_T=effective_T, dropped_remainder=dropped,
                            steps=n_steps)
