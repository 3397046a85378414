import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import scnls
from scnls import Grid


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
        out = grid_1d.free_propagate(f, 0.37)
        expected = np.exp(-1j * k0**2 * 0.37) * f
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_field(self, grid_1d):
        z = np.zeros(grid_1d.shape, dtype=complex)
        assert np.all(grid_1d.free_propagate(z, 0.5) == 0)

    def test_gaussian_closed_form(self):
        # u0 = exp(-a x^2) evolves to exp(-a x^2/(1+4iat)) / sqrt(1+4iat)
        g = Grid(1, 1024, 40.0)
        x = g.x[0]
        a, t = 1.0, 0.1
        u0 = np.exp(-a * x**2) + 0j
        out = g.free_propagate(u0, t)
        phi = 1.0 + 4j * a * t
        expected = np.exp(-a * x**2 / phi) / np.sqrt(phi)
        assert np.max(np.abs(out - expected)) < 1e-8

    def test_rejects_nonfinite(self, grid_1d):
        f = np.ones(grid_1d.shape, dtype=complex)
        f[0] = np.nan
        with pytest.raises(ValueError):
            grid_1d.free_propagate(f, 0.1)

    @settings(max_examples=20, deadline=None)
    @given(dt=st.floats(-50.0, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_mass_preserved_any_dt(self, dt, seed):
        g = Grid(1, 128, 20.0)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        m0 = g.norm_sq(f)
        m1 = g.norm_sq(g.free_propagate(f, dt))
        assert abs(m1 - m0) <= 1e-12 * m0

    @settings(max_examples=20, deadline=None)
    @given(dt=st.floats(1e-4, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_reversibility(self, dt, seed):
        g = Grid(1, 128, 20.0)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        back = g.free_propagate(g.free_propagate(f, dt), -dt)
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
        # every transform in the package goes through Grid.fft/Grid.ifft
        package = Path(scnls.__file__).parent
        callers = sorted(
            path.name for path in package.glob("*.py")
            if re.search(r"np\.fft\.i?fftn|numpy\.fft\.i?fftn", path.read_text(encoding="utf-8"))
        )
        assert callers == ["grid.py"]
