import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import scnls
from scnls import Grid

from conftest import free_propagate


class TestMakeGrid:
    def test_1d_basic(self):
        g = Grid(1, 8, 2 * np.pi)
        assert g.spacing == pytest.approx(np.pi / 4)
        assert sorted(np.rint(g.k[0]).astype(int)) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert g.node_count == 8

    def test_2d_basic(self):
        g = Grid(2, 16, 10.0)
        assert g.node_count == 256
        assert g.spacing == pytest.approx(0.625)
        assert g.shape == (16, 16)

    def test_2d_meshes_match_meshgrid(self):
        g, h = Grid(2, 16, 10.0), Grid(1, 16, 10.0)
        for got, axis in ((g.x, h.x[0]), (g.k, h.k[0])):
            for a, b in zip(got, np.meshgrid(axis, axis, indexing="ij")):
                np.testing.assert_array_equal(a, b)

    def test_spacing_times_n_is_length(self):
        g = Grid(1, 64, 17.0)
        assert g.spacing * g.n == pytest.approx(g.length)

    def test_each_signed_frequency_once(self):
        g = Grid(1, 32, 5.0)
        m = np.rint(g.k[0] * g.length / (2 * np.pi)).astype(int)
        assert len(set(m.tolist())) == 32
        assert 0 in m

    def test_box_is_half_open(self):
        g = Grid(1, 16, 8.0)
        x = g.x[0]
        assert x[0] == pytest.approx(-4.0)
        assert x[-1] == pytest.approx(4.0 - g.spacing)

    @pytest.mark.parametrize(
        "dim,n,L",
        [(3, 8, 1.0), (0, 8, 1.0), (1, 7, 1.0), (1, 4, 1.0), (1, 12, 1.0),
         (1, 8, 0.0), (1, 8, -2.0)],
    )
    def test_rejects_bad_arguments(self, dim, n, L):
        with pytest.raises(ValueError):
            Grid(dim, n, L)


class TestFreePropagate:
    def test_plane_wave_eigenfunction(self, grid_1d):
        k0 = grid_1d.k[0][3]
        f = np.exp(1j * k0 * grid_1d.x[0])
        out = free_propagate(grid_1d, f, 0.37)
        expected = np.exp(-1j * k0**2 * 0.37) * f
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_field(self, grid_1d):
        z = np.zeros(grid_1d.shape, dtype=complex)
        assert np.all(free_propagate(grid_1d, z, 0.5) == 0)

    def test_gaussian_closed_form(self):
        # u0 = exp(-a x^2) evolves to exp(-a x^2/(1+4iat)) / sqrt(1+4iat)
        g = Grid(1, 1024, 40.0)
        x = g.x[0]
        a, t = 1.0, 0.1
        u0 = np.exp(-a * x**2) + 0j
        out = free_propagate(g, u0, t)
        phi = 1.0 + 4j * a * t
        expected = np.exp(-a * x**2 / phi) / np.sqrt(phi)
        assert np.max(np.abs(out - expected)) < 1e-8

    def test_rejects_nonfinite(self, grid_1d):
        f = np.ones(grid_1d.shape, dtype=complex)
        f[0] = np.nan
        with pytest.raises(ValueError):
            free_propagate(grid_1d, f, 0.1)

    @settings(max_examples=20, deadline=None)
    @given(dt=st.floats(-50.0, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_mass_preserved_any_dt(self, dt, seed):
        g = Grid(1, 128, 20.0)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        m0 = g.norm_sq(f)
        m1 = g.norm_sq(free_propagate(g, f, dt))
        assert abs(m1 - m0) <= 1e-12 * m0

    @settings(max_examples=20, deadline=None)
    @given(dt=st.floats(1e-4, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_reversibility(self, dt, seed):
        g = Grid(1, 128, 20.0)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        back = free_propagate(g, free_propagate(g, f, dt), -dt)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


class TestGradient:
    def test_constant_field(self, grid_1d):
        f = 3.7 * np.ones(grid_1d.shape, dtype=complex)
        (d,) = grid_1d.gradient(f)
        assert np.max(np.abs(d)) < 1e-12

    def test_plane_wave(self, grid_1d):
        k0 = grid_1d.k[0][5]
        f = np.exp(1j * k0 * grid_1d.x[0])
        (d,) = grid_1d.gradient(f)
        np.testing.assert_allclose(d, 1j * k0 * f, atol=1e-10)

    def test_2d_axes(self, grid_2d):
        ka = 2 * np.pi * 2 / grid_2d.length
        f = np.exp(1j * ka * grid_2d.x[0])
        da, db = grid_2d.gradient(f)
        np.testing.assert_allclose(da, 1j * ka * f, atol=1e-10)
        assert np.max(np.abs(db)) < 1e-10

    def test_matches_fourth_order_differences(self):
        # band-limited field: spectral derivative agrees with the FD4 stencil
        # up to the stencil's own O(dx^4) truncation error
        g = Grid(1, 128, 2 * np.pi)
        rng = np.random.default_rng(5)
        f = np.zeros(128, dtype=complex)
        for m in range(-8, 9):
            f += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(
                1j * m * g.x[0]
            )
        (d_spec,) = g.gradient(f)
        d_fd = (
            -np.roll(f, -2) + 8 * np.roll(f, -1) - 8 * np.roll(f, 1) + np.roll(f, 2)
        ) / (12 * g.spacing)
        # FD4 symbol error per mode ~ |m|^5 dx^4 / 30
        bound = 8**5 * g.spacing**4 / 30 * np.max(np.abs(f)) * 2
        assert np.max(np.abs(d_spec - d_fd)) < bound

    def test_linearity(self, grid_1d):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid_1d.n) + 1j * rng.standard_normal(grid_1d.n)
        h = rng.standard_normal(grid_1d.n) + 1j * rng.standard_normal(grid_1d.n)
        a, b = 2.0 - 1j, 0.3 + 0.7j
        (d_combo,) = grid_1d.gradient(a * f + b * h)
        (df,) = grid_1d.gradient(f)
        (dh,) = grid_1d.gradient(h)
        np.testing.assert_allclose(d_combo, a * df + b * dh, atol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bits_of_the_mesh_multiplier(self, dim):
        # the stored i*k axis vectors, and the derivative written into a
        # buffer, give the bits of 1j * k_mesh * coeffs with the Nyquist
        # mode zeroed, batch axis included
        g = Grid(dim, 64, 16.0)
        rng = np.random.default_rng(dim)
        f = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
        coeffs = np.fft.fftn(f, axes=g._axes)
        out = np.empty_like(f)
        for axis, d in enumerate(g.gradient(f)):
            k = g.k[axis].copy()
            k[(slice(None),) * axis + (g.n // 2,)] = 0.0
            expected = np.fft.ifftn(1j * k * coeffs, axes=g._axes)
            assert d.tobytes() == expected.tobytes()
            assert g._derivative(coeffs, axis, out=out) is out
            assert out.tobytes() == expected.tobytes()


class TestQuadrature:
    def test_constant_on_periodic_box(self):
        g = Grid(1, 64, 2 * np.pi)
        assert g.quadrature(np.ones(64)) == pytest.approx(2 * np.pi, rel=1e-14)

    def test_gaussian_against_adaptive_quadrature(self, grid_1d):
        oracle, _ = quad(lambda x: np.exp(-2 * x**2), -np.inf, np.inf)
        val = grid_1d.quadrature(np.exp(-2 * grid_1d.x[0] ** 2))
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(np.sqrt(np.pi / 2), abs=1e-12)

    def test_sech_squared(self, grid_1d):
        # integral of sech^2 = tanh evaluated at the ends = 2
        val = grid_1d.quadrature(1.0 / np.cosh(grid_1d.x[0]) ** 2)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_2d_separable_gaussian(self, grid_2d):
        val = grid_2d.quadrature(np.exp(-2 * grid_2d.r_sq))
        assert val == pytest.approx(np.pi / 2, rel=1e-12)

    def test_parseval(self, grid_1d):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid_1d.n) + 1j * rng.standard_normal(grid_1d.n)
        direct = grid_1d.norm_sq(f)
        coeffs = grid_1d.fft(f)
        spectral = np.sum(np.abs(coeffs) ** 2) * grid_1d.spacing / grid_1d.n
        assert abs(direct - spectral) <= 1e-12 * direct


class TestFftSeam:
    def test_numpy_transforms_only_in_grid(self):
        # every transform in the package goes through Grid.fft/ifft/rfft/irfft
        package = Path(scnls.__file__).parent
        callers = sorted(
            path.name for path in package.glob("*.py")
            if re.search(r"(np|numpy)\.fft\.i?r?fftn?\b", path.read_text(encoding="utf-8"))
        )
        assert callers == ["grid.py"]

    @pytest.mark.parametrize("dim,n", [(1, 512), (1, 2048), (2, 64), (2, 128)])
    def test_real_pair_into_out_equals_numpy_bitwise(self, dim, n):
        # rfft and irfft into out= give numpy's rfftn/irfftn bits; irfft
        # inverts the leading axes in place in its input, so it allocates no
        # intermediate spectrum
        grid = Grid(dim, n, 9.0)
        rng = np.random.default_rng(dim * n)
        values = rng.standard_normal(grid.shape)
        coeffs = np.empty(grid.shape[:-1] + (n // 2 + 1,), dtype=complex)
        assert grid.rfft(values, out=coeffs) is coeffs
        expected = np.fft.rfftn(values)
        assert coeffs.tobytes() == expected.tobytes()
        assert grid.rfft(values).tobytes() == expected.tobytes()
        coeffs *= 1.0 + grid.k_sq[..., :n // 2 + 1]
        expected = np.fft.irfftn(coeffs)
        assert grid.irfft(coeffs.copy()).tobytes() == expected.tobytes()
        out = np.empty(grid.shape)
        tracemalloc.start()
        try:
            got = grid.irfft(coeffs, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is out
        assert out.tobytes() == expected.tobytes()
        assert peak < coeffs.nbytes // 2


class TestProlong:
    @staticmethod
    def _trig_polynomial(grid, nc):
        # modes |m| < nc/2 on every axis, with a shift so that sines appear
        theta = [2.0 * np.pi * (x + 0.3) / grid.length for x in grid.x]
        f = 0.7 + np.cos(theta[0]) + 0.4 * np.sin((nc // 2 - 1) * theta[0])
        if grid.dim == 2:
            f = f * (1.0 - 0.5 * np.cos(3 * theta[1])) + 0.2 * np.sin(
                (nc // 2 - 1) * theta[1] - 2 * theta[0])
        return f

    @pytest.mark.parametrize("dim,nc,n", [(1, 16, 32), (1, 16, 64), (2, 16, 32), (2, 32, 64)])
    def test_reproduces_resolved_trig_polynomial_and_mass(self, dim, nc, n):
        coarse, fine = Grid(dim, nc, 7.0), Grid(dim, n, 7.0)
        values = self._trig_polynomial(coarse, nc)
        expected = self._trig_polynomial(fine, nc)
        got = fine.prolong(values)
        assert got.dtype == np.float64 and got.shape == fine.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
        assert fine.norm_sq(got) == pytest.approx(coarse.norm_sq(values), rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nyquist_mode_split_between_both_signs(self, dim):
        # cos(pi nc x / L) samples as (-1)^j on the coarse nodes; the split
        # interpolant is that cosine, not a one-sided complex exponential
        nc = 16
        coarse, fine = Grid(dim, nc, 5.0), Grid(dim, 2 * nc, 5.0)

        def nyquist(grid):
            f = np.cos(np.pi * nc * grid.x[0] / grid.length)
            return f * np.cos(np.pi * nc * grid.x[1] / grid.length) if dim == 2 else f

        np.testing.assert_allclose(fine.prolong(nyquist(coarse)), nyquist(fine),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape", [(16,), (32, 32), (64, 64), (16, 8), (24, 24)])
    def test_rejects_a_field_not_on_a_coarser_grid(self, shape):
        with pytest.raises(ValueError):
            Grid(2, 32, 7.0).prolong(np.zeros(shape))
