"""Finite-mode multiplicative phase noise.

The driving noise is a K-mode truncation of a cylindrical Wiener process,
W(t) = sum_k e_k(x) B_k(t), acting on each field component through a real
multiplication operator.  The k-th spatial mode of component i is a real field
g_{i,k}(x); the local noise intensity is F_i(x) = sum_k g_{i,k}(x)^2.

Because the modes are real, the noise acts as a random potential: one noise
step is the exact pathwise flow of ``i du = u dtheta`` with
theta(x) = sum_k g_{i,k}(x) dB_k, i.e. pointwise multiplication by
``exp(-1j * theta)``.  This preserves |u| at every node, so the discrete mass
is exactly invariant, and it contains the Ito drift ``-F_i/2 u dt`` of the
equivalent Ito form exactly (E[exp(-1j*theta)] = exp(-F dt / 2)).

:class:`NoiseModel` stores the modes of both components as one array with a
component axis in front.  When both components share their mode shapes and
their scale, that axis has length 1: the modes are stored once, the noise
step broadcasts the one row over the field pair, and the Ito terms read it
for both components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

__all__ = [
    "NoiseSpec",
    "NoiseModel",
    "build_noise_model",
    "sample_increments",
    "stratonovich_phase",
]

_FAMILIES = ("fourier", "constant")


@dataclass(frozen=True)
class NoiseSpec:
    """Configuration of the finite mode family.

    Mode k (k = 0..K-1) carries amplitude ``a0 * (1 + k)**(-decay_p)``.
    ``family="fourier"`` uses the box modes cos(2*pi*m.x/L), sin(2*pi*m.x/L),
    m in the order of :func:`_frequency_vectors`; ``family="constant"`` uses
    the constant function 1 for every mode.  With ``shared_modes`` both
    components use the same mode shapes; otherwise component 2 takes the next
    K members of the family.  ``scale_u``/``scale_v`` multiply the modes of the
    respective component.
    """

    K: int = 0
    family: str = "fourier"
    a0: float = 0.0
    decay_p: float = 2.0
    shared_modes: bool = True
    scale_u: float = 1.0
    scale_v: float = 1.0

    def __post_init__(self):
        if self.K < 0:
            raise ValueError(f"K must be >= 0, got {self.K}")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}; choose from {_FAMILIES}")
        # written so that NaN and inf fail too
        if not 0 <= self.a0 < np.inf:
            raise ValueError(f"mode amplitude a0 must be finite and >= 0, got {self.a0}")
        if not 0 <= self.decay_p < np.inf:
            raise ValueError(f"decay exponent must be finite and >= 0, got {self.decay_p}")
        if not np.isfinite([self.scale_u, self.scale_v]).all():
            raise ValueError(f"mode scales must be finite, got {self.scale_u}, {self.scale_v}")

    def amplitudes(self) -> np.ndarray:
        k = np.arange(self.K, dtype=float)
        return self.a0 * (1.0 + k) ** (-self.decay_p)


def _frequency_vectors(dim: int):
    """Canonical half-space enumeration of nonzero integer frequencies.

    Yields vectors with first nonzero entry positive, by ring max(|m_1|, |m_2|),
    then by (|m|^2, m), so (3, +-3) precedes (0, 4): a fixed, documented order.
    """
    radius = 1
    while True:
        ring = []
        if dim == 1:
            ring = [(radius,)]
        else:
            for a in range(-radius, radius + 1):
                for b in range(-radius, radius + 1):
                    if max(abs(a), abs(b)) != radius:
                        continue
                    if a > 0 or (a == 0 and b > 0):
                        ring.append((a, b))
            ring.sort(key=lambda m: (m[0] ** 2 + m[1] ** 2, m))
        yield from ring
        radius += 1


def _family_modes(grid: Grid, family: str, count: int) -> np.ndarray:
    """First ``count`` unit-amplitude members of the mode family on the grid."""
    if family == "constant":
        return np.ones((count,) + grid.shape)
    modes = []
    freq_iter = _frequency_vectors(grid.dim)
    while len(modes) < count:
        m = next(freq_iter)
        phase = sum(2.0 * np.pi * mi * xi / grid.length for mi, xi in zip(m, grid.x))
        modes.append(np.cos(phase))
        if len(modes) < count:
            modes.append(np.sin(phase))
    return np.asarray(modes[:count])


class NoiseModel:
    """Immutable bundle of mode fields and cached derived quantities.

    Every field array has a component axis of length C in front: C = 1 when
    the components share their modes and ``scale_u == scale_v`` (the one row
    serves both), else C = 2 with u's modes in row 0 and v's in row 1.

    Attributes:
        K: number of modes (0 = deterministic equation).
        modes: the mode fields, shape ``(C, K) + grid.shape``.
        F: intensity fields ``sum_k g_k^2``, shape ``(C,) + grid.shape``.
        sup_F: their maxima over the grid, shape ``(C,)``.
        grad_modes: per-axis mode gradients, shape ``(C, K, dim) + grid.shape``.
        grad_sq_sum: fields ``sum_k |grad g_k|^2``, shape ``(C,) + grid.shape``.
        xdot_grad: fields ``x . grad g_k``, shape ``(C, K) + grid.shape``.
        modes_u, modes_v, F_u, F_v, sup_F_u, sup_F_v, grad_modes_u,
        grad_modes_v, grad_sq_sum_u, grad_sq_sum_v, xdot_grad_u,
        xdot_grad_v: each component's row of the arrays above.
    """

    def __init__(self, spec: NoiseSpec, grid: Grid):
        self.spec = spec
        self.grid = grid
        self.K = spec.K

        shared = spec.shared_modes
        one_row = shared and spec.scale_u == spec.scale_v
        scales = [spec.scale_u] if one_row else [spec.scale_u, spec.scale_v]
        base = _family_modes(grid, spec.family, spec.K if shared else 2 * spec.K)
        base = base.reshape((1 if shared else 2, spec.K) + grid.shape)
        amps = spec.amplitudes().reshape((spec.K,) + (1,) * grid.dim)
        self.modes = np.reshape(scales, (-1, 1) + (1,) * grid.dim) * amps * base

        self.F = np.sum(self.modes**2, axis=1)
        self.sup_F = self.F.reshape(len(self.F), -1).max(axis=1)
        # an empty mode axis is its own gradient, so a deterministic model
        # transforms nothing
        gradient = grid.gradient(self.modes) if spec.K else [self.modes] * grid.dim
        self.grad_modes = np.stack(gradient, axis=2).real
        self.grad_sq_sum = np.sum(self.grad_modes**2, axis=(1, 2))
        self.xdot_grad = sum(xa * self.grad_modes[:, :, a] for a, xa in enumerate(grid.x))

        # each component's row; v's is u's when the modes are stored once
        self.modes_u, self.modes_v = self.modes[0], self.modes[-1]
        self.F_u, self.F_v = self.F[0], self.F[-1]
        self.sup_F_u, self.sup_F_v = float(self.sup_F[0]), float(self.sup_F[-1])
        self.grad_modes_u, self.grad_modes_v = self.grad_modes[0], self.grad_modes[-1]
        self.grad_sq_sum_u, self.grad_sq_sum_v = self.grad_sq_sum[0], self.grad_sq_sum[-1]
        self.xdot_grad_u, self.xdot_grad_v = self.xdot_grad[0], self.xdot_grad[-1]

    @property
    def min_sup_F(self) -> float:
        return float(self.sup_F.min())


def build_noise_model(spec: NoiseSpec, grid: Grid) -> NoiseModel:
    """Materialize the mode fields and cache F, sup F and mode gradients."""
    return NoiseModel(spec, grid)


def sample_increments(K: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Draw K independent N(0, dt) Wiener increments."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return rng.standard_normal(K) * np.sqrt(dt)


def stratonovich_phase(
    values: np.ndarray, model: NoiseModel, increments: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One exact noise step of the field pair: multiply by exp(-1j * sum_k g_k(x) dB_k).

    ``values`` is the pair, shape ``(2,) + grid.shape``, or a batch of P
    paths, shape ``(2, P) + grid.shape`` with ``increments`` of shape (P, K)
    (one row of increments per path); the result goes to ``out``, which may
    be ``values`` itself.  The phase of each mode row is accumulated mode by
    mode with elementwise operations, so each path's result is bitwise the
    same whatever the batch size; modes stored once give one phase for both
    components.  Preserves |values| at every node; the Ito correction -F/2
    is contained in the exponential exactly.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.shape[-1:] != (model.K,):
        raise ValueError(f"expected {model.K} increments per path, got shape {increments.shape}")
    if model.K == 0:
        if out is None:
            return values.copy()
        out[...] = values
        return out
    # the modes' rows over the pair's component axis, broadcast over its paths
    modes = model.modes.reshape(
        model.modes.shape[:2] + (1,) * (values.ndim - 1 - model.grid.dim) + model.grid.shape)
    # -dB_k of each path, broadcast over that path's grid axes
    minus_db = -np.moveaxis(increments, -1, 0).reshape(
        (model.K,) + increments.shape[:-1] + (1,) * model.grid.dim)
    minus_theta = minus_db[0] * modes[:, 0]
    for k in range(1, model.K):
        minus_theta += minus_db[k] * modes[:, k]
    phase = np.empty(minus_theta.shape, dtype=complex)
    np.cos(minus_theta, out=phase.real)
    np.sin(minus_theta, out=phase.imag)
    return np.multiply(values, phase, out=out)
