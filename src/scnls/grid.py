"""Periodic-box spectral discretization.

Conventions (fixed once, used everywhere):

* The box is ``[-L/2, L/2)^dim`` sampled at ``n`` equispaced nodes per axis,
  ``x_j = -L/2 + j*L/n``.
* Forward FFT carries no prefactor, the inverse carries ``1/n^dim``
  (numpy's default "backward" normalization).
* The Laplacian has Fourier symbol ``-|k|^2`` with ``k_m = 2*pi*m/L`` and
  ``m`` the signed integer frequency, so the free flow ``exp(i*t*Lap)``
  multiplies mode ``k`` by ``exp(-1j*|k|^2*t)``.
* Integrals are the rectangle rule ``sum(samples) * spacing^dim``, which on a
  periodic grid is the trapezoid rule and is spectrally accurate for smooth
  periodic integrands.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["Grid", "save_field_snapshot", "load_field_snapshot"]


class Grid:
    """Uniform periodic grid on ``[-L/2, L/2)^dim`` with wavenumber tables.

    Attributes:
        dim: spatial dimension, 1 or 2.
        n: nodes per axis (power of two, >= 8).
        length: box length L (same on every axis).
        spacing: L / n.
        shape: array shape of a field on this grid.
        x: tuple of coordinate meshes, one per axis, each of shape ``shape``.
        r_sq: ``|x|^2`` mesh (sum of squared centered coordinates).
        k: tuple of wavenumber meshes, one per axis.
        k_sq: ``|k|^2`` mesh.
    """

    def __init__(self, dim: int, n: int, length: float):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {n}")
        length = float(length)
        if not np.isfinite(length) or length <= 0:
            raise ValueError(f"box length must be positive, got {length}")

        self.dim = dim
        self.n = n
        self.length = length
        self.spacing = length / n
        self.shape = (n,) * dim
        self.node_count = n**dim
        self._axes = tuple(range(-dim, 0))

        axis_x = -0.5 * length + self.spacing * np.arange(n)
        axis_k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        axis_m = np.rint(np.fft.fftfreq(n) * n).astype(int)  # signed freq index
        # the unpaired Nyquist mode carries no usable odd-derivative
        # information for real data; drop it from first-derivative multipliers
        axis_k_deriv = axis_k.copy()
        axis_k_deriv[n // 2] = 0.0

        if dim == 1:
            self.x = (axis_x,)
            self.k = (axis_k,)
            self._k_deriv = (axis_k_deriv,)
            m_inf = np.abs(axis_m)
        else:
            xa, xb = np.meshgrid(axis_x, axis_x, indexing="ij")
            ka, kb = np.meshgrid(axis_k, axis_k, indexing="ij")
            da, db = np.meshgrid(axis_k_deriv, axis_k_deriv, indexing="ij")
            ma, mb = np.meshgrid(np.abs(axis_m), np.abs(axis_m), indexing="ij")
            self.x = (xa, xb)
            self.k = (ka, kb)
            self._k_deriv = (da, db)
            m_inf = np.maximum(ma, mb)

        self.r_sq = sum(c**2 for c in self.x)
        self.k_sq = sum(c**2 for c in self.k)
        # top third of resolvable frequencies, used as a resolution-loss gauge
        self.tail_mask = m_inf > n / 3.0

    # -- transforms ---------------------------------------------------------

    # every transform in the package goes through these two methods; they
    # transform the trailing ``dim`` axes only, so a batch of fields on a
    # leading axis is transformed row by row (each row bitwise equal to its
    # transform alone); ``out`` may be the input itself (in place, bitwise
    # equal); passing ``s`` spares numpy a slow shape lookup per call

    def fft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.fftn(values, s=self.shape, axes=self._axes, out=out)

    def ifft(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.ifftn(coeffs, s=self.shape, axes=self._axes, out=out)

    def free_propagate(self, values: np.ndarray, dt: float) -> np.ndarray:
        """Apply the free flow ``exp(i*dt*Lap)``: multiply mode k by exp(-i|k|^2 dt).

        Exactly unitary on the grid; dt may be negative (time reversal).
        """
        if not np.all(np.isfinite(values)):
            raise ValueError("free_propagate requires a finite field")
        return self.ifft(self.fft(values) * np.exp(-1j * self.k_sq * dt))

    def gradient(self, values: np.ndarray) -> list[np.ndarray]:
        """Spectral gradient: Fourier multiplier ``i*k`` per axis.

        The Nyquist frequency is excluded from the multiplier so that real
        input yields a real-valued derivative to round-off.
        """
        coeffs = self.fft(values)
        return [self.ifft(1j * ka * coeffs) for ka in self._k_deriv]

    # -- quadrature ---------------------------------------------------------

    def quadrature(self, samples: np.ndarray) -> float:
        """Rectangle-rule integral ``sum(samples) * spacing^dim``."""
        return samples.sum() * self.spacing**self.dim

    def norm_sq(self, values: np.ndarray) -> float:
        """Discrete squared L2 norm, ``integral |values|^2``."""
        return float(self.quadrature(np.abs(values) ** 2))

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True on modes kept after dealiasing (|m| <= n/3 per axis)."""
        return ~self.tail_mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.n == other.n
            and self.length == other.length
        )

    def __repr__(self) -> str:
        return f"Grid(dim={self.dim}, n={self.n}, length={self.length})"


def save_field_snapshot(path: str | Path, grid: Grid, values: np.ndarray) -> None:
    """Raw snapshot: little-endian float64 (re, im) pairs in row-major node order.

    A JSON sidecar at ``<path>.json`` records the grid so the file round-trips
    bit-exactly across languages.
    """
    path = Path(path)
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    interleaved = np.empty(2 * flat.size, dtype="<f8")
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    path.write_bytes(interleaved.tobytes())
    sidecar = {
        "dim": grid.dim,
        "n": grid.n,
        "L": grid.length,
        "layout": "row-major",
        "dtype": "<f8 interleaved re,im",
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_field_snapshot(path: str | Path) -> tuple[Grid, np.ndarray]:
    """The grid and field of a snapshot written by :func:`save_field_snapshot`."""
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text(encoding="utf-8"))
    grid = Grid(sidecar["dim"], sidecar["n"], sidecar["L"])
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    if raw.size != 2 * grid.node_count:
        raise ValueError(f"snapshot {path} does not match its sidecar grid")
    values = (raw[0::2] + 1j * raw[1::2]).reshape(grid.shape)
    return grid, values
