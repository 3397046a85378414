import numpy as np
import pytest

from scnls import Coupling, Grid, NoiseSpec, SystemState, build_noise_model


@pytest.fixture(scope="session")
def grid_1d():
    return Grid(1, 256, 40.0)


@pytest.fixture(scope="session")
def grid_1d_fine():
    return Grid(1, 1024, 40.0)


@pytest.fixture(scope="session")
def grid_2d():
    return Grid(2, 64, 16.0)


@pytest.fixture(scope="session")
def no_noise_1d(grid_1d):
    return build_noise_model(NoiseSpec(), grid_1d)


@pytest.fixture(scope="session")
def no_noise_1d_fine(grid_1d_fine):
    return build_noise_model(NoiseSpec(), grid_1d_fine)


def make_state(grid, u, v=None):
    u = np.asarray(u, dtype=complex)
    if v is None:
        v = np.zeros(grid.shape, dtype=complex)
    return SystemState(u, np.asarray(v, dtype=complex), 0.0, grid)


def free_propagate(grid, values, dt):
    """The free flow exp(i*dt*Lap) of ``values``: mode k times exp(-i|k|^2 dt).

    Exactly unitary on the grid; dt may be negative (time reversal).  An
    oracle for the step's free flow, which multiplies the held spectrum.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("free_propagate requires a finite field")
    return grid.ifft(grid.fft(values) * np.exp(-1j * grid.k_sq * dt))


def scalar_coupling(l11=1.0, sigma=1.0):
    lam = np.zeros((2, 2))
    lam[0, 0] = l11
    return Coupling(sigma, lam)


def random_smooth_field(grid, rng, n_modes=8, scale=1.0):
    """Band-limited random field: low modes with decaying random coefficients."""
    coeffs = np.zeros(grid.shape, dtype=complex)
    if grid.dim == 1:
        for m in range(-n_modes, n_modes + 1):
            c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + m * m)
            coeffs[m] = c
    else:
        for ma in range(-n_modes, n_modes + 1):
            for mb in range(-n_modes, n_modes + 1):
                c = (rng.standard_normal() + 1j * rng.standard_normal()) / (
                    1.0 + ma * ma + mb * mb
                )
                coeffs[ma, mb] = c
    field = np.fft.ifftn(coeffs) * grid.node_count
    return scale * field / max(np.abs(field).max(), 1e-300)


def brownian_tree(n_fine, K, dt_fine, seed):
    """Fine-level increments; coarser levels are pair sums of these."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_fine, K)) * np.sqrt(dt_fine)


def coarsen(increments, factor):
    n, K = increments.shape
    assert n % factor == 0
    return increments.reshape(n // factor, factor, K).sum(axis=1)
