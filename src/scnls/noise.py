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
    ``family="fourier"`` uses the lowest cos/sin box modes
    (cos(2*pi*m.x/L), sin(2*pi*m.x/L), ordered by |m|^2); ``family="constant"``
    uses the constant function 1 for every mode.  With ``shared_modes`` both
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
        if self.a0 < 0:
            raise ValueError(f"mode amplitude a0 must be >= 0, got {self.a0}")
        if self.decay_p < 0:
            raise ValueError(f"decay exponent must be >= 0, got {self.decay_p}")

    def amplitudes(self) -> np.ndarray:
        k = np.arange(self.K, dtype=float)
        return self.a0 * (1.0 + k) ** (-self.decay_p)


def _frequency_vectors(dim: int):
    """Canonical half-space enumeration of nonzero integer frequencies.

    Yields vectors with first nonzero entry positive, sorted by (|m|^2, m),
    so the cos/sin pairs they generate are a fixed, documented order.
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
    if count == 0:
        return np.zeros((0,) + grid.shape)
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

    Attributes:
        K: number of modes (0 = deterministic equation).
        modes_u, modes_v: arrays of shape ``(K,) + grid.shape``.
        F_u, F_v: intensity fields ``sum_k g_k^2``.
        sup_F_u, sup_F_v: their maxima over the grid.
        grad_modes_u, grad_modes_v: per-axis mode gradients,
            shape ``(K, dim) + grid.shape``.
        grad_sq_sum_u, grad_sq_sum_v: fields ``sum_k |grad g_k|^2``.
        xdot_grad_u, xdot_grad_v: fields ``x . grad g_k``, shape ``(K,) + shape``.
    """

    def __init__(self, spec: NoiseSpec, grid: Grid):
        self.spec = spec
        self.grid = grid
        self.K = spec.K

        base = _family_modes(grid, spec.family, 2 * spec.K if not spec.shared_modes else spec.K)
        amps = spec.amplitudes()
        if spec.shared_modes:
            base_u = base
            base_v = base
        else:
            base_u = base[: spec.K]
            base_v = base[spec.K :]
        if np.iscomplexobj(base_u) or np.iscomplexobj(base_v):
            raise ValueError("noise modes must be real-valued")

        shape_k = (spec.K,) + (1,) * grid.dim
        self.modes_u = spec.scale_u * amps.reshape(shape_k) * base_u
        self.modes_v = spec.scale_v * amps.reshape(shape_k) * base_v

        self.F_u = np.sum(self.modes_u**2, axis=0) if spec.K else np.zeros(grid.shape)
        self.F_v = np.sum(self.modes_v**2, axis=0) if spec.K else np.zeros(grid.shape)
        self.sup_F_u = float(self.F_u.max())
        self.sup_F_v = float(self.F_v.max())

        def _grads(modes):
            return np.asarray([grid.gradient(g) for g in modes]).real

        self.grad_modes_u = _grads(self.modes_u) if spec.K else np.zeros((0, grid.dim) + grid.shape)
        self.grad_modes_v = _grads(self.modes_v) if spec.K else np.zeros((0, grid.dim) + grid.shape)
        self.grad_sq_sum_u = np.sum(self.grad_modes_u**2, axis=(0, 1)) if spec.K else np.zeros(grid.shape)
        self.grad_sq_sum_v = np.sum(self.grad_modes_v**2, axis=(0, 1)) if spec.K else np.zeros(grid.shape)

        def _xdot(grads):
            if not spec.K:
                return np.zeros((0,) + grid.shape)
            return np.asarray(
                [sum(xa * gk[a] for a, xa in enumerate(grid.x)) for gk in grads]
            )

        self.xdot_grad_u = _xdot(self.grad_modes_u)
        self.xdot_grad_v = _xdot(self.grad_modes_v)

    @property
    def min_sup_F(self) -> float:
        return min(self.sup_F_u, self.sup_F_v)

    def modes(self, component: int) -> np.ndarray:
        if component == 1:
            return self.modes_u
        if component == 2:
            return self.modes_v
        raise ValueError(f"component must be 1 or 2, got {component}")


def build_noise_model(spec: NoiseSpec, grid: Grid) -> NoiseModel:
    """Materialize the mode fields and cache F, sup F and mode gradients."""
    return NoiseModel(spec, grid)


def sample_increments(K: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Draw K independent N(0, dt) Wiener increments."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return rng.standard_normal(K) * np.sqrt(dt)


def stratonovich_phase(
    values: np.ndarray, component: int, model: NoiseModel, increments: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One exact noise step: multiply by exp(-1j * sum_k g_k(x) dB_k).

    ``values`` may carry a leading batch axis of P paths, with ``increments``
    of shape (P, K) (one row of increments per path); the result goes to
    ``out``, which may be ``values`` itself.  The phase is accumulated mode by
    mode with elementwise operations, so each path's result is bitwise the
    same whatever the batch size.  Preserves |values| at every node; the Ito
    correction -F/2 is contained in the exponential exactly.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.shape[-1:] != (model.K,):
        raise ValueError(f"expected {model.K} increments per path, got shape {increments.shape}")
    if model.K == 0:
        if out is None:
            return values.copy()
        out[...] = values
        return out
    modes = model.modes(component)
    # -dB_k of each path, broadcast over that path's grid axes
    minus_db = -np.moveaxis(increments, -1, 0).reshape(
        (model.K,) + increments.shape[:-1] + (1,) * model.grid.dim)
    minus_theta = minus_db[0] * modes[0]
    for k in range(1, model.K):
        minus_theta += minus_db[k] * modes[k]
    phase = np.empty(minus_theta.shape, dtype=complex)
    np.cos(minus_theta, out=phase.real)
    np.sin(minus_theta, out=phase.imag)
    return np.multiply(values, phase, out=out)
