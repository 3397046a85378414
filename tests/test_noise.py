import copy

import numpy as np
import pytest

from scnls import (
    NoiseSpec,
    build_noise_model,
    sample_increments,
    stratonovich_phase,
)

from conftest import random_smooth_field


class TestNoiseSpec:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            NoiseSpec(K=1, a0=-0.1)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            NoiseSpec(K=1, family="wavelet")

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            NoiseSpec(K=-1)

    def test_amplitude_decay_law(self):
        spec = NoiseSpec(K=3, a0=2.0, decay_p=2.0)
        np.testing.assert_allclose(spec.amplitudes(), [2.0, 0.5, 2.0 / 9.0])


class TestBuildNoiseModel:
    def test_single_constant_mode(self, grid_1d):
        c = 0.7
        model = build_noise_model(NoiseSpec(K=1, family="constant", a0=c), grid_1d)
        np.testing.assert_allclose(model.F_u, c**2 * np.ones(grid_1d.shape))
        assert model.sup_F_u == pytest.approx(c**2)
        assert model.sup_F_v == pytest.approx(c**2)

    def test_k_zero_deterministic_limit(self, grid_1d):
        model = build_noise_model(NoiseSpec(), grid_1d)
        assert model.K == 0
        assert np.all(model.F_u == 0)
        assert np.all(model.F_v == 0)
        assert model.min_sup_F == 0.0

    def test_cos_sin_pair_gives_unit_intensity(self, grid_1d):
        # first two box modes are cos(2 pi x / L) and sin(2 pi x / L)
        model = build_noise_model(
            NoiseSpec(K=2, family="fourier", a0=1.0, decay_p=0.0), grid_1d
        )
        x = grid_1d.x[0]
        np.testing.assert_allclose(model.modes_u[0], np.cos(2 * np.pi * x / grid_1d.length), atol=1e-12)
        np.testing.assert_allclose(model.modes_u[1], np.sin(2 * np.pi * x / grid_1d.length), atol=1e-12)
        np.testing.assert_allclose(model.F_u, 1.0, atol=1e-13)

    def test_intensity_matches_mode_square_sum(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=5, family="fourier", a0=0.4), grid_1d)
        np.testing.assert_allclose(model.F_u, np.sum(model.modes_u**2, axis=0), atol=1e-14)
        assert model.sup_F_u == pytest.approx(model.F_u.max())

    def test_intensity_nonnegative(self, grid_2d):
        model = build_noise_model(NoiseSpec(K=7, family="fourier", a0=1.3), grid_2d)
        assert np.all(model.F_u >= 0)
        assert np.all(model.F_v >= 0)

    def test_per_component_scale(self, grid_1d):
        model = build_noise_model(
            NoiseSpec(K=1, family="constant", a0=1.0, scale_u=1.0, scale_v=3.0), grid_1d
        )
        assert model.sup_F_u == pytest.approx(1.0)
        assert model.sup_F_v == pytest.approx(9.0)
        assert model.min_sup_F == pytest.approx(1.0)

    def test_unshared_modes_differ(self, grid_1d):
        shared = build_noise_model(NoiseSpec(K=2, a0=1.0, shared_modes=True), grid_1d)
        split = build_noise_model(NoiseSpec(K=2, a0=1.0, shared_modes=False), grid_1d)
        np.testing.assert_allclose(shared.modes_u, shared.modes_v)
        assert np.max(np.abs(split.modes_u - split.modes_v)) > 0.1

    def test_2d_modes_are_real_and_smooth(self, grid_2d):
        model = build_noise_model(NoiseSpec(K=6, family="fourier", a0=1.0), grid_2d)
        assert model.modes_u.shape == (6,) + grid_2d.shape
        assert not np.iscomplexobj(model.modes_u)


class TestSampleIncrements:
    def test_k_zero_is_empty(self):
        rng = np.random.default_rng(0)
        assert sample_increments(0, 0.1, rng).shape == (0,)

    def test_fixed_seed_reproducible(self):
        a = sample_increments(5, 0.01, np.random.default_rng(42))
        b = sample_increments(5, 0.01, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dt", [0.0, -0.5])
    def test_rejects_nonpositive_dt(self, dt):
        with pytest.raises(ValueError):
            sample_increments(3, dt, np.random.default_rng(0))

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(7)
        dt, n = 0.01, 10**5
        draws = np.array([sample_increments(1, dt, rng)[0] for _ in range(n)])
        assert abs(draws.mean()) < 3 * np.sqrt(dt / n)
        assert abs(draws.var() - dt) < 0.05 * dt


class TestStratonovichPhase:
    def test_zero_increment_is_identity(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=3, a0=0.5), grid_1d)
        f = np.exp(-grid_1d.x[0] ** 2) + 0.3j
        out = stratonovich_phase(np.stack((f, f)), model, np.zeros(3))[0]
        np.testing.assert_array_equal(out, f)

    def test_constant_mode_scalar_phase(self, grid_1d):
        c, b = 0.8, -0.35
        model = build_noise_model(NoiseSpec(K=1, family="constant", a0=c), grid_1d)
        f = np.exp(-grid_1d.x[0] ** 2) + 0j
        out = stratonovich_phase(np.stack((f, f)), model, np.array([b]))[0]
        np.testing.assert_allclose(out, f * np.exp(-1j * c * b), atol=1e-14)

    def test_modulus_preserved_pointwise(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=4, a0=1.5, decay_p=1.0), grid_1d)
        rng = np.random.default_rng(9)
        f = random_smooth_field(grid_1d, rng)
        inc = sample_increments(4, 0.05, rng)
        out = stratonovich_phase(np.stack((f, f)), model, inc)[1]
        np.testing.assert_allclose(np.abs(out), np.abs(f), rtol=1e-13)

    def test_mass_invariance(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=6, a0=2.0, decay_p=1.5), grid_1d)
        rng = np.random.default_rng(21)
        for _ in range(25):
            f = random_smooth_field(grid_1d, rng, scale=rng.uniform(0.1, 5.0))
            inc = sample_increments(6, rng.uniform(1e-4, 0.5), rng)
            m0 = grid_1d.norm_sq(f)
            m1 = grid_1d.norm_sq(stratonovich_phase(np.stack((f, f)), model, inc)[0])
            assert abs(m1 - m0) < 1e-13 * m0

    def test_modes_stored_once_equal_modes_spelled_out(self, grid_1d):
        # shared modes with equal scales are stored as one row; the step
        # broadcasts it over the pair with the bits of one row per component
        model = build_noise_model(NoiseSpec(K=3, a0=0.5, decay_p=1.0), grid_1d)
        assert model.modes.shape == (1, 3) + grid_1d.shape
        spelled = copy.copy(model)
        spelled.modes = np.concatenate((model.modes, model.modes))
        rng = np.random.default_rng(4)
        pair = np.stack([np.stack([random_smooth_field(grid_1d, rng) for _ in range(4)])
                         for _ in range(2)])
        inc = rng.standard_normal((4, 3)) * 0.1
        np.testing.assert_array_equal(stratonovich_phase(pair, model, inc),
                                      stratonovich_phase(pair, spelled, inc))

    def test_increment_count_mismatch(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=3, a0=0.5), grid_1d)
        with pytest.raises(ValueError):
            stratonovich_phase(np.ones((2,) + grid_1d.shape, dtype=complex), model, np.zeros(2))

    def test_ito_drift_consistency(self, grid_1d):
        # sample mean of (out - in)/dt over many one-step draws approaches
        # -F/2 * f, the drift of the equivalent Ito form
        model = build_noise_model(NoiseSpec(K=3, a0=0.5, decay_p=1.0), grid_1d)
        f = (1.0 + 0.5j) * np.exp(-grid_1d.x[0] ** 2)
        dt, n_samples = 0.1, 10**4
        rng = np.random.default_rng(3)
        incs = rng.standard_normal((n_samples, 3)) * np.sqrt(dt)
        thetas = incs @ model.modes_u.reshape(3, -1)
        mean_step = (np.exp(-1j * thetas).mean(axis=0) - 1.0) / dt * f
        target = -0.5 * model.F_u * f
        stat = 5 * np.sqrt(model.sup_F_u / (n_samples * dt)) * np.abs(f).max()
        bias = model.sup_F_u**2 * dt / 8 * np.abs(f).max()
        assert np.max(np.abs(mean_step - target)) < stat + bias


class TestFrequencyOrder:
    def test_2d_vectors_go_ring_by_ring(self):
        # by max(|m1|, |m2|), then by (|m|^2, m) within a ring: (3, +-3), with
        # |m|^2 = 18, comes before (0, 4), with 16.  Outputs depend on this order.
        import itertools

        from scnls.noise import _frequency_vectors

        assert list(itertools.islice(_frequency_vectors(2), 26)) == [
            (0, 1), (1, 0), (1, -1), (1, 1),
            (0, 2), (2, 0), (1, -2), (1, 2), (2, -1), (2, 1), (2, -2), (2, 2),
            (0, 3), (3, 0), (1, -3), (1, 3), (3, -1), (3, 1), (2, -3), (2, 3), (3, -2),
            (3, 2), (3, -3), (3, 3),
            (0, 4), (4, 0),
        ]
