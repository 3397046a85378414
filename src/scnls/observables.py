"""Monitored functionals and identity checks along trajectories.

Four functionals of the field pair are tracked:

    M = integral |u|^2 + |v|^2
    H = 1/2 integral |grad u|^2 + |grad v|^2
        - 1/(2+2s) integral l11|u|^(2+2s) + l22|v|^(2+2s) + 2 l12 |v|^(s+1)|u|^(s+1)
    V = integral |x|^2 (|u|^2 + |v|^2)
    G = Im integral u x.grad(conj u) + v x.grad(conj v)

Each ingredient is computed in one place.  ||grad u||^2 + ||grad v||^2
comes only from :func:`scnls.dynamics._spectral_diagnostics` (one FFT per
component, Parseval).  The potential integrals integral |u|^(2s+2),
integral |v|^(2s+2) and integral (|u||v|)^(s+1) come only from
:func:`_potential_integrals`; H, the virial quartic below and
:func:`scnls.groundstate.gn_ratio` weigh them with their own coefficients.
The masked mixed-term factor |f|^(s-1) lives only in
``scnls.dynamics._phase_multiplier``, shared by the N step and the
ground-state solver.  :meth:`TrajectoryRecorder.record` takes |u| and |v|
once per row and reuses the diagnostics ``evolve`` has just computed, so of
a row only G transforms.

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
    potential = _potential_integrals(*np.abs(state.fields), coupling.sigma, state.grid)
    return _energy(grad_norm_sq, potential, coupling)


def _potential_integrals(au: np.ndarray, av: np.ndarray, sigma: float,
                         grid: Grid) -> tuple[float, float, float]:
    """(integral |u|^(2s+2), integral |v|^(2s+2), integral (|u||v|)^(s+1)).

    The package's one potential integrand, from the moduli ``au``, ``av``:
    H weighs the three integrals with (l11, l22, 2 l12), the virial quartic
    with (l11, l22, 2 l21) and the interpolation ratio with (1, 1, 2 beta).
    sigma = 1 squares instead of calling the general power.
    """
    if sigma == 1.0:
        pu, pv = np.square(au), np.square(av)
    else:
        pu, pv = np.power(au, sigma + 1.0), np.power(av, sigma + 1.0)
    mixed = float(grid.quadrature(pu * pv))
    return (float(grid.quadrature(np.square(pu, out=pu))),
            float(grid.quadrature(np.square(pv, out=pv))), mixed)


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
    grid = state.grid
    total = 0.0j
    for f in state.fields:
        grads = grid.gradient(f)
        xdot = sum(xa * np.conj(da) for xa, da in zip(grid.x, grads))
        total += grid.quadrature(f * xdot)
    return float(np.imag(total))


# -- trajectory recording ----------------------------------------------------

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


_ROW_NAMES = (
    "t", "mass_u", "mass_v", "H", "V", "G", "grad_norm_sq",
    "spectral_tail_fraction", "paper_kernel", "gradient_kernel",
    "coupling_quartic", "stoch_energy", "stoch_G",
)


def _ito_terms(fields: np.ndarray, model: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-component, per-path, per-mode Ito integrands of a batch pair, each (2, P, K).

    Im integral conj(f) grad(f) . grad(g_k) dx (energy identity) and
    integral |f|^2 x.grad(g_k) dx (momentum identity) for each row f of the
    pair ``fields`` (shape ``(2, P, *grid.shape)``), with that component's
    own modes.  The rows are taken one at a time, as the L step takes them:
    the gradient's temporaries of one component cost less than those of the
    pair (measured on the ``ensemble_1d`` batches of 8 and 16 paths).
    """
    grid = model.grid
    h = grid.spacing**grid.dim
    energy = np.zeros(fields.shape[:2] + (model.K,))
    moment = np.zeros_like(energy)
    for f, f_energy, f_moment, grad_modes, xdot in zip(
            fields, energy, moment, (model.grad_modes_u, model.grad_modes_v),
            (model.xdot_grad_u, model.xdot_grad_v)):
        density = np.abs(f)
        np.square(density, out=density)
        for k, field in enumerate(xdot):
            f_moment[:, k] = _node_sums(density * field, grid) * h
        del density  # freed before the gradient's transforms allocate
        conj_f = np.conj(f)
        for axis, derivative in enumerate(grid.gradient(f)):
            derivative *= conj_f
            for k, mode_gradient in enumerate(grad_modes):
                f_energy[:, k] += _node_sums(derivative.imag * mode_gradient[axis], grid)
    return energy * h, moment


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
    the batch fields' path axis.  ``on_step(state, increments)`` must be called with the
    pre-step batch state and the exact Wiener increments about to drive the
    step, shape (paths, K) (left-point evaluation).  ``record(state,
    grad_norm_sq, tail, row)`` appends one row to path ``row`` from that
    path's own state; ``finalize(row)`` returns the path's record.  When
    paths leave the batch, ``keep(mask)`` drops their rows so that the rest
    close up as the batch's rows do.
    """

    def __init__(self, model: NoiseModel, coupling: Coupling,
                 track_identities: bool = True, paths: int = 1):
        self.model = model
        self.coupling = coupling
        self.track = bool(track_identities)
        self._stoch_energy = np.zeros(paths)
        self._stoch_G = np.zeros(paths)
        # columns of raw doubles: a row costs 8 bytes per value, not a float object
        self._rows = [{name: array("d") for name in _ROW_NAMES} for _ in range(paths)]

    def on_step(self, state: SystemState, increments: np.ndarray) -> None:
        """Add one step's Ito terms of the energy and momentum identities.

        ``state`` is the batch pair, fields of shape ``(2, paths, *grid.shape)``;
        one call takes the terms of both components, added in the order u, v.
        Every path's terms are sums over its own nodes, taken mode by mode,
        so they are bitwise the same whatever the batch size.
        """
        model = self.model
        if not self.track or model.K == 0:
            return
        energy, moment = _ito_terms(state.fields, model)
        # energy identity: H(t) = H(0) - sum_k Im(...) dB_k + drift
        self._stoch_energy -= _mode_dot(energy[0] + energy[1], increments)
        self._stoch_G += _mode_dot(moment[0] + moment[1], increments)

    def record(self, state: SystemState, grad_norm_sq: float, tail: float,
               row: int = 0) -> None:
        """Append one row to path ``row`` at ``state``, that path's own state.

        ``grad_norm_sq`` and ``tail`` are the spectral diagnostics of this
        state (``evolve`` has just computed them); H takes its kinetic part
        from them.  |u| and |v| are taken once, and the masses, V, both drift
        kernels and the potential integrals all come from them, so only G
        transforms.  G goes first, so that its complex temporaries are freed
        before the moduli are taken.
        """
        grid = state.grid
        model = self.model
        c = self.coupling
        G = momentum_G(state)
        moduli = np.abs(state.fields)
        au, av = moduli
        iu, iv, iuv = potential = _potential_integrals(au, av, c.sigma, grid)
        dens_u, dens_v = np.square(moduli)
        paper = 0.5 * grid.quadrature(
            dens_u * model.F_u
            + dens_v * model.F_v
            + 2.0 * au * av * np.sqrt(model.F_u * model.F_v)
        )
        gradient = 0.5 * grid.quadrature(
            dens_u * model.grad_sq_sum_u + dens_v * model.grad_sq_sum_v
        )
        rows = self._rows[row]
        rows["t"].append(state.t)
        rows["mass_u"].append(float(grid.quadrature(dens_u)))
        rows["mass_v"].append(float(grid.quadrature(dens_v)))
        rows["H"].append(_energy(grad_norm_sq, potential, c))
        rows["V"].append(float(grid.quadrature(grid.r_sq * (dens_u + dens_v))))
        rows["G"].append(G)
        rows["grad_norm_sq"].append(grad_norm_sq)
        rows["spectral_tail_fraction"].append(tail)
        rows["paper_kernel"].append(float(paper))
        rows["gradient_kernel"].append(float(gradient))
        rows["coupling_quartic"].append(c.l11 * iu + c.l22 * iv + 2.0 * c.l21 * iuv)
        rows["stoch_energy"].append(float(self._stoch_energy[row]))
        rows["stoch_G"].append(float(self._stoch_G[row]))

    def finalize(self, row: int = 0) -> TrajectoryRecord:
        arrays = {name: np.array(col) for name, col in self._rows[row].items()}
        return TrajectoryRecord(
            **arrays,
            sigma=self.coupling.sigma,
            dim=self.model.grid.dim,
            tracked=self.track,
        )

    def keep(self, mask: np.ndarray) -> None:
        """Drop the paths at the rows where ``mask`` is False."""
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
    stderr: float | None = None


def criterion_lhs(V0: float, G0: float, H0: float, M0: float,
                  min_sup_F: float, t_bar: float) -> float:
    """V0 + 4 G0 tbar + 8 H0 tbar^2 + (4/3) tbar^3 min_i sup F_i M0."""
    if t_bar <= 0:
        raise ValueError(f"t_bar must be positive, got {t_bar}")
    return (
        V0
        + 4.0 * G0 * t_bar
        + 8.0 * H0 * t_bar**2
        + (4.0 / 3.0) * t_bar**3 * min_sup_F * M0
    )


def blowup_criterion(
    states,
    coupling: Coupling,
    t_bar: float,
    model: NoiseModel,
    check_hypotheses: bool = True,
) -> CriterionResult:
    """Evaluate the blow-up criterion polynomial at horizon ``t_bar``.

    ``states`` is a single initial :class:`SystemState` or a sequence of them;
    for a sequence the functionals are sample means and the standard error of
    the lhs is reported.  A negative lhs certifies positive blow-up
    probability by ``t_bar`` only under the hypotheses sigma*N >= 2 and an
    entrywise nonnegative (focusing) coefficient matrix, which keeps the
    potential integrand of the virial identity nonnegative; outside them a
    warning is emitted and the arithmetic is still returned.
    """
    if t_bar <= 0:
        raise ValueError(f"t_bar must be positive, got {t_bar}")
    if isinstance(states, SystemState):
        ensemble = [states]
    else:
        ensemble = list(states)
        if not ensemble:
            raise ValueError("need at least one initial state")
    if check_hypotheses:
        dim = ensemble[0].grid.dim
        if coupling.sigma * dim < 2:
            warnings.warn(
                "criterion evaluated below the mass-critical exponent "
                "(sigma*N < 2); a negative value carries no blow-up guarantee "
                "in this regime",
                stacklevel=2,
            )
        if np.any(coupling.lam < 0):
            warnings.warn(
                "criterion evaluated with a coefficient matrix that has a "
                "negative (defocusing) entry; a negative value carries no "
                "blow-up guarantee under these coefficients",
                stacklevel=2,
            )

    samples = []
    for st in ensemble:
        m = mass(st)[2]
        # the polynomial bounds V(t) through the virial identities, so the
        # momentum enters in the identity-consistent orientation -momentum_G
        samples.append((
            variance(st, warn_boundary=False),
            -momentum_G(st),
            hamiltonian(st, coupling),
            m,
        ))
    arr = np.asarray(samples)
    V0, G0, H0, M0 = arr.mean(axis=0)
    lhs = criterion_lhs(V0, G0, H0, M0, model.min_sup_F, t_bar)
    stderr = None
    if len(ensemble) > 1:
        per_path = np.array([
            criterion_lhs(v, g, h, m, model.min_sup_F, t_bar) for v, g, h, m in samples
        ])
        stderr = float(per_path.std(ddof=1) / np.sqrt(len(per_path)))
    return CriterionResult(
        lhs=float(lhs), verdict=bool(lhs < 0), t_bar=t_bar,
        V0=float(V0), G0=float(G0), H0=float(H0), M0=float(M0),
        min_sup_F=model.min_sup_F, stderr=stderr,
    )


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
