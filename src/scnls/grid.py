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
        # the first-derivative multipliers i*k, built once; in 2D each is an
        # axis vector that broadcasts over the other axis, not a mesh
        axis_ik = 1j * axis_k_deriv

        if dim == 1:
            self.x = (axis_x,)
            self.k = (axis_k,)
            self._ik = (axis_ik,)
            m_inf = np.abs(axis_m)
        else:
            # the "ij" meshes of each axis table, built with np.repeat: grids
            # built per call (the ground state's coarse levels) through
            # np.meshgrid grew the process by about 130 kB of small objects
            def mesh(axis):
                return np.repeat(axis[:, None], n, axis=1), np.repeat(axis[None, :], n, axis=0)

            xa, xb = mesh(axis_x)
            ka, kb = mesh(axis_k)
            ma, mb = mesh(np.abs(axis_m))
            self.x = (xa, xb)
            self.k = (ka, kb)
            self._ik = (axis_ik[:, None], axis_ik[None, :])
            m_inf = np.maximum(ma, mb)

        self.r_sq = sum(c**2 for c in self.x)
        self.k_sq = sum(c**2 for c in self.k)
        # top third of resolvable frequencies, used as a resolution-loss gauge
        self.tail_mask = m_inf > n / 3.0

    # -- transforms ---------------------------------------------------------

    # every transform in the package goes through the methods below; they
    # transform the trailing ``dim`` axes only, so a batch of fields on a
    # leading axis is transformed row by row (each row bitwise equal to its
    # transform alone); ``out`` may be the input itself (in place, bitwise
    # equal); passing ``s`` spares numpy a slow shape lookup per call.
    # ``axis`` transforms along that one grid axis only: numpy transforms the
    # last axis first, so the last axis and then the first is bitwise the
    # transform of both

    def fft(self, values: np.ndarray, out: np.ndarray | None = None,
            axis: int | None = None) -> np.ndarray:
        if axis is not None:
            return np.fft.fft(values, axis=axis, out=out)
        return np.fft.fftn(values, s=self.shape, axes=self._axes, out=out)

    def ifft(self, coeffs: np.ndarray, out: np.ndarray | None = None,
             axis: int | None = None) -> np.ndarray:
        if axis is not None:
            return np.fft.ifft(coeffs, axis=axis, out=out)
        return np.fft.ifftn(coeffs, s=self.shape, axes=self._axes, out=out)

    # the real-input pair: the half spectrum keeps modes 0..n/2 of the last
    # axis, and the inverse returns a real field, written into ``out`` when
    # given.  The inverse takes irfftn's passes in irfftn's order, so its bits
    # are irfftn's: the leading axes in place in ``coeffs``, then the last
    # axis into ``out``.  So ``coeffs`` is overwritten (in 2D), and no
    # intermediate spectrum is allocated

    def rfft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.rfftn(values, s=self.shape, axes=self._axes, out=out)

    def irfft(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        for axis in self._axes[:-1]:
            np.fft.ifft(coeffs, axis=axis, out=coeffs)
        return np.fft.irfft(coeffs, n=self.n, axis=-1, out=out)

    def prolong(self, values: np.ndarray) -> np.ndarray:
        """Trigonometric interpolation onto this grid of the real ``values``,
        sampled on the same box at fewer nodes per axis (a power of two).

        The centred spectrum is zero-padded, and the Nyquist mode of each
        axis is split evenly between +n_c/2 and -n_c/2, so the result is
        real and every mode the coarse grid resolves is reproduced.
        """
        nc = values.shape[-1]
        if values.shape != (nc,) * self.dim or not 2 <= nc < self.n or nc & (nc - 1):
            raise ValueError(f"cannot prolong a field of shape {values.shape} onto {self!r}")
        m = nc // 2
        spec = np.fft.rfftn(values, axes=self._axes)
        spec *= (self.n // nc) ** self.dim  # numpy's inverse divides by the node count
        spec[..., m] *= 0.5  # its mirror at -n_c/2 is implicit in the half spectrum
        padded = np.zeros(self.shape[:-1] + (self.n // 2 + 1,), dtype=complex)
        if self.dim == 1:
            padded[:m + 1] = spec
        else:
            spec[m] *= 0.5
            padded[:m + 1, :m + 1] = spec[:m + 1]
            padded[-m:, :m + 1] = spec[m:]
        return self.irfft(padded)

    def gradient(self, values: np.ndarray) -> list[np.ndarray]:
        """Spectral gradient: Fourier multiplier ``i*k`` per axis.

        The Nyquist frequency is excluded from the multiplier so that real
        input yields a real-valued derivative to round-off.
        """
        coeffs = self.fft(values)
        return [self._derivative(coeffs, axis) for axis in range(self.dim)]

    def _derivative(self, coeffs: np.ndarray, axis: int,
                    out: np.ndarray | None = None) -> np.ndarray:
        """The derivative along grid ``axis`` of the field whose transform is
        ``coeffs``, written into ``out`` when given (allocated otherwise).

        The product (i*k)*coeffs is the one Python evaluates for
        ``1j * k * coeffs``, so the bits are those of that expression.
        """
        return self.ifft(np.multiply(self._ik[axis], coeffs, out=out), out=out)

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
    # a little-endian complex128 is its (re, im) float64 pair
    path.write_bytes(np.asarray(values, dtype="<c16").tobytes())
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
    raw = path.read_bytes()
    if len(raw) != 16 * grid.node_count:
        raise ValueError(f"snapshot {path} does not match its sidecar grid")
    # astype copies, so the field is writable and every bit is the file's
    return grid, np.frombuffer(raw, dtype="<c16").astype(complex).reshape(grid.shape)
