import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnls import (
    Coupling,
    Grid,
    NoiseSpec,
    SystemState,
    build_noise_model,
    evolve,
    nonlinear_phase,
    strang_step,
)

from conftest import free_propagate, make_state, random_smooth_field, scalar_coupling


class TestCoupling:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            Coupling(0.0, np.eye(2))
        with pytest.raises(ValueError):
            Coupling(-1.0, np.eye(2))

    def test_rejects_asymmetric_by_default(self):
        lam = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            Coupling(1.0, lam)

    def test_asymmetric_override_warns(self):
        lam = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.warns(UserWarning):
            c = Coupling(1.0, lam, allow_asymmetric=True)
        assert c.l12 == 0.5 and c.l21 == 0.2

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Coupling(1.0, np.ones(3))

    def test_mass_critical_detection(self):
        assert Coupling(2.0, np.eye(2)).is_mass_critical(1)
        assert Coupling(1.0, np.eye(2)).is_mass_critical(2)
        assert not Coupling(1.0, np.eye(2)).is_mass_critical(1)


class TestNonlinearPhase:
    def test_zero_matrix_is_identity(self, grid_1d):
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        out = nonlinear_phase(st_, 0.1, Coupling(1.0, np.zeros((2, 2))))
        np.testing.assert_array_equal(out.u, st_.u)
        np.testing.assert_array_equal(out.v, st_.v)

    def test_scalar_cubic_reduction(self, grid_1d):
        u = np.exp(-grid_1d.x[0] ** 2) * (1 + 0.5j)
        st_ = make_state(grid_1d, u)
        dt = 0.2
        out = nonlinear_phase(st_, dt, scalar_coupling(1.0, 1.0))
        np.testing.assert_allclose(out.u, u * np.exp(1j * dt * np.abs(u) ** 2), atol=1e-14)
        np.testing.assert_allclose(np.abs(out.u), np.abs(u), rtol=1e-14)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.7])
    def test_mass_unchanged_random_state(self, grid_1d, sigma):
        rng = np.random.default_rng(4)
        u = random_smooth_field(grid_1d, rng, scale=2.0)
        v = random_smooth_field(grid_1d, rng, scale=1.5)
        st_ = make_state(grid_1d, u, v)
        lam = np.array([[1.2, -0.4], [-0.4, 0.8]])
        out = nonlinear_phase(st_, 0.3, Coupling(sigma, lam))
        assert abs(grid_1d.norm_sq(out.u) - grid_1d.norm_sq(u)) < 1e-12 * grid_1d.norm_sq(u)
        assert abs(grid_1d.norm_sq(out.v) - grid_1d.norm_sq(v)) < 1e-12 * grid_1d.norm_sq(v)

    def test_vanishing_modulus_no_nan(self, grid_1d):
        # sigma < 1 makes |u|^(sigma-1) singular at exact zeros
        u = np.zeros(grid_1d.shape, dtype=complex)
        u[10] = 1.0
        v = np.ones(grid_1d.shape, dtype=complex)
        st_ = make_state(grid_1d, u, v)
        lam = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = nonlinear_phase(st_, 0.1, Coupling(0.5, lam))
        assert out.is_finite()
        assert out.u[0] == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), sigma=st.floats(0.3, 2.5), dt=st.floats(-0.5, 0.5))
    def test_modulus_invariant_property(self, seed, sigma, dt):
        g = Grid(1, 64, 10.0)
        rng = np.random.default_rng(seed)
        u = random_smooth_field(g, rng)
        v = random_smooth_field(g, rng)
        lam = np.array([[0.7, -1.1], [-1.1, 0.9]])
        out = nonlinear_phase(make_state(g, u, v), dt, Coupling(sigma, lam))
        np.testing.assert_allclose(np.abs(out.u), np.abs(u), atol=1e-13)
        np.testing.assert_allclose(np.abs(out.v), np.abs(v), atol=1e-13)


class TestTrivialAngles:
    """N writes (1, theta) where |theta| < 2^-27 instead of taking cos and sin."""

    def test_cos_and_sin_round_to_one_and_the_angle(self):
        # the platform fact the masked N rests on, for angles of every binade
        # below the bound, +-0 and subnormals, written through the strided
        # parts of a complex array as N writes its factor
        from scnls.dynamics import _TRIVIAL_ANGLE

        rng = np.random.default_rng(0)
        n = 200_000
        magnitude = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, -26, n))
        x = np.concatenate([
            rng.choice([-1.0, 1.0], n) * magnitude,
            rng.uniform(-_TRIVIAL_ANGLE, _TRIVIAL_ANGLE, n),
            [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny, -np.finfo(float).tiny,
             np.nextafter(_TRIVIAL_ANGLE, 0.0), -np.nextafter(_TRIVIAL_ANGLE, 0.0)],
        ])
        assert (np.abs(x) < _TRIVIAL_ANGLE).all()
        factor = np.empty(x.size, dtype=complex)
        np.cos(x, out=factor.real)
        np.sin(x, out=factor.imag)
        assert (factor.real == 1.0).all()
        assert factor.imag.tobytes() == x.tobytes()
        # twice the bound is too wide: there cos is 1.0 only at some angles
        wider = rng.uniform(_TRIVIAL_ANGLE, 2.0 * _TRIVIAL_ANGLE, 10_000)
        assert (np.cos(wider) != 1.0).any()

    @staticmethod
    def _rotated(monkeypatch, floor, fields, dt, c, rows, chunks, grid):
        from scnls import dynamics
        from scnls.dynamics import Workspace, _rotate_rows

        monkeypatch.setattr(dynamics, "_MASKED_TRIG_NODES", floor)
        fields = fields.copy()
        work = Workspace(grid, dt, fields.shape)
        work.rows = rows
        work.spectra.fill(0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            turned = [_rotate_rows(fields, dt, c, work, index) for index in chunks]
        return fields, work.spectra, turned

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("case", ["focusing", "defocusing", "revives", "non-finite"])
    def test_masked_rotation_equals_cos_and_sin_everywhere(self, grid_2d, monkeypatch,
                                                            split, case):
        g = grid_2d
        rng = np.random.default_rng(21)
        dt = 1e-3
        phase = np.exp(2j * np.pi * rng.uniform(size=(2, 2) + g.shape))
        # Gaussians whose angles run from about 1e-2 down to exact zero
        u = 3.0 * np.exp(-g.r_sq) * phase[0]
        v = 2.0 * np.exp(-((g.x[0] - 2.0) ** 2 + g.x[1] ** 2)) * phase[1]
        rows = (0, 1)
        if case == "focusing":
            c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 2.0]]))
        elif case == "defocusing":
            c = Coupling(1.5, np.array([[-1.0, -0.7], [-0.7, -2.0]]))
        elif case == "revives":
            # |u|^(s+1) overflows in the second half of the rows only, so
            # that half turns the dead v NaN
            c = Coupling(0.5, np.array([[1.0, 0.5], [0.5, 1.0]]))
            u[:, g.n // 2 + 5] *= 1e210
            v[:] = 0.0
            rows = (0,)
        else:
            c = Coupling(0.7, np.array([[1.0, 0.5], [0.5, 1.0]]))
            u[0, 3, 4], u[1, 40, 7], v[0, 9, 9] = np.nan, np.inf, -np.inf
            v[1, 20, 30] = complex(np.nan, 1.0)
        fields = np.ascontiguousarray(np.stack([u, v]))
        half = g.n // 2
        chunks = ((np.s_[..., :half, :], np.s_[..., half:, :]) if split else (Ellipsis,))
        masked = self._rotated(monkeypatch, 1, fields, dt, c, rows, chunks, g)
        plain = self._rotated(monkeypatch, np.inf, fields, dt, c, rows, chunks, g)
        assert masked[2] == plain[2]
        assert masked[0].tobytes() == plain[0].tobytes()
        assert masked[1].tobytes() == plain[1].tobytes()
        angles = 3.0**2 * dt * np.exp(-2.0 * g.r_sq)
        assert (angles < 2.0**-27).any() and (angles >= 2.0**-27).any()
        if case == "revives":
            assert masked[2] == ([(0,), (0, 1)] if split else [(0, 1)])
        if case == "non-finite":
            assert np.isnan(masked[0]).any()

    def test_no_draws_without_noise(self, grid_1d, no_noise_1d, monkeypatch):
        from scnls import dynamics

        def refuse(*args):
            raise AssertionError("sample_increments called with K = 0")

        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        monkeypatch.setattr(dynamics, "sample_increments", refuse)
        seeded = evolve(st_, 0.01, 1e-3, no_noise_1d, scalar_coupling(), seed=5)
        given_ = evolve(st_, 0.01, 1e-3, no_noise_1d, scalar_coupling(),
                        increments=np.zeros((10, 0)))
        assert seeded.steps == given_.steps == 10
        assert seeded.state.fields.tobytes() == given_.state.fields.tobytes()


class TestStrangStep:
    def test_free_limit(self, grid_1d, no_noise_1d):
        rng = np.random.default_rng(1)
        u = random_smooth_field(grid_1d, rng)
        v = random_smooth_field(grid_1d, rng)
        st_ = make_state(grid_1d, u, v)
        out = strang_step(st_, 0.01, no_noise_1d, np.zeros(0), Coupling(1.0, np.zeros((2, 2))))
        np.testing.assert_allclose(out.u, free_propagate(grid_1d, u, 0.01), atol=1e-13)
        np.testing.assert_allclose(out.v, free_propagate(grid_1d, v, 0.01), atol=1e-13)
        assert out.t == pytest.approx(0.01)

    def test_mass_conserved_per_step(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=3, a0=0.4), grid_1d)
        rng = np.random.default_rng(6)
        st_ = make_state(grid_1d, random_smooth_field(grid_1d, rng, scale=2.0),
                         random_smooth_field(grid_1d, rng))
        lam = np.array([[1.0, 0.3], [0.3, -0.5]])
        inc = rng.standard_normal(3) * 0.1
        m0 = grid_1d.norm_sq(st_.u)
        out = strang_step(st_, 1e-2, model, inc, Coupling(1.0, lam))
        assert abs(grid_1d.norm_sq(out.u) - m0) < 1e-12 * m0

    def test_deterministic_reversibility(self, grid_1d, no_noise_1d):
        rng = np.random.default_rng(2)
        u = random_smooth_field(grid_1d, rng, scale=1.2)
        st_ = make_state(grid_1d, u)
        c = scalar_coupling(1.0, 1.0)
        fwd = strang_step(st_, 1e-3, no_noise_1d, np.zeros(0), c)
        back = strang_step(fwd, -1e-3, no_noise_1d, np.zeros(0), c)
        assert np.max(np.abs(back.u - u)) < 1e-10 * np.max(np.abs(u))

    def test_nan_input_flags_blowup(self, grid_1d, no_noise_1d):
        u = np.ones(grid_1d.shape, dtype=complex)
        u[0] = np.nan
        st_ = make_state(grid_1d, u)
        out = strang_step(st_, 1e-3, no_noise_1d, np.zeros(0), scalar_coupling())
        assert out.blown_up

    def test_soliton_short(self, grid_1d_fine, no_noise_1d_fine):
        x = grid_1d_fine.x[0]
        profile = np.sqrt(2) / np.cosh(x)
        st_ = make_state(grid_1d_fine, profile)
        c = scalar_coupling(1.0, 1.0)
        out = st_
        for _ in range(200):
            out = strang_step(out, 1e-3, no_noise_1d_fine, np.zeros(0), c)
        assert np.max(np.abs(np.abs(out.u) - profile)) < 1e-5
        # the whole field matches sqrt(2) sech(x) e^{it}
        np.testing.assert_allclose(out.u, profile * np.exp(1j * out.t), atol=2e-4)

    def test_h_converges_at_second_order(self, grid_1d, no_noise_1d):
        from scnls import hamiltonian

        c = scalar_coupling(1.0, 1.0)
        u0 = 1.5 * np.exp(-grid_1d.x[0] ** 2)

        def h_drift(dt):
            st_ = make_state(grid_1d, u0)
            h0 = hamiltonian(st_, c)
            out = st_
            for _ in range(round(0.5 / dt)):
                out = strang_step(out, dt, no_noise_1d, np.zeros(0), c)
            return abs(hamiltonian(out, c) - h0)

        drifts = [h_drift(dt) for dt in (4e-3, 2e-3, 1e-3)]
        order = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(drifts), 1)[0]
        assert 1.8 <= order <= 2.2


class TestEvolve:
    def test_t_zero_single_row(self, grid_1d, no_noise_1d):
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        res = evolve(st_, 0.0, 1e-3, no_noise_1d, scalar_coupling(), seed=0)
        assert res.outcome == "completed"
        assert len(res.record) == 1
        np.testing.assert_array_equal(res.state.u, st_.u)

    def test_seed_reproducibility(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_1d)
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        c = scalar_coupling(1.0, 1.0)
        r1 = evolve(st_.copy(), 0.1, 1e-3, model, c, seed=77, record_every=10)
        r2 = evolve(st_.copy(), 0.1, 1e-3, model, c, seed=77, record_every=10)
        np.testing.assert_array_equal(r1.record.H, r2.record.H)
        np.testing.assert_array_equal(r1.record.stoch_energy, r2.record.stoch_energy)
        np.testing.assert_array_equal(r1.state.u, r2.state.u)

    def test_zero_amplitude_noise_equals_deterministic(self, grid_1d):
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        c = scalar_coupling(1.0, 1.0)
        det = build_noise_model(NoiseSpec(), grid_1d)
        silent = build_noise_model(NoiseSpec(K=3, a0=0.0), grid_1d)
        r1 = evolve(st_.copy(), 0.1, 1e-3, det, c, seed=5, record_every=10)
        r2 = evolve(st_.copy(), 0.1, 1e-3, silent, c, seed=5, record_every=10)
        np.testing.assert_array_equal(r1.record.H, r2.record.H)
        np.testing.assert_array_equal(r1.record.V, r2.record.V)

    def test_partial_step_dropped_and_reported(self, grid_1d, no_noise_1d):
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        with pytest.warns(UserWarning, match="not a multiple"):
            res = evolve(st_, 0.0105, 1e-3, no_noise_1d, scalar_coupling(), seed=0)
        assert res.steps == 10
        assert res.effective_T == pytest.approx(0.010)
        assert res.dropped_remainder == pytest.approx(5e-4)

    def test_detector_triggers_on_2d_collapse(self):
        # mass-critical focusing with H0 < 0 collapses in finite time
        from scnls import BlowupDetector, hamiltonian

        g = Grid(2, 128, 20.0)
        u0 = 4.0 * np.exp(-g.r_sq)
        st_ = make_state(g, u0)
        c = Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
        model = build_noise_model(NoiseSpec(), g)
        assert hamiltonian(st_, c) < 0
        grad0 = sum(g.norm_sq(d) for d in g.gradient(st_.u))
        det = BlowupDetector.for_initial(grad0)
        res = evolve(st_, 1.0, 5e-4, model, c, seed=0, record_every=50,
                     detector=det, track_identities=False)
        assert res.outcome == "blowup"
        assert res.t_star is not None and res.t_star < 1.0

    def test_mass_conservation_long_stochastic(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=2, a0=0.3), grid_1d)
        st_ = make_state(grid_1d, 1.3 * np.exp(-grid_1d.x[0] ** 2),
                         0.8 * np.exp(-grid_1d.x[0] ** 2 / 2))
        lam = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = evolve(st_, 2.0, 1e-3, model, Coupling(1.0, lam), seed=8,
                     record_every=200, track_identities=False)
        rec = res.record
        for series in (rec.mass_u, rec.mass_v):
            assert np.max(np.abs(series - series[0])) < 1e-12 * series[0]

    def test_increments_shape_validated(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=2, a0=0.1), grid_1d)
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        with pytest.raises(ValueError):
            evolve(st_, 0.01, 1e-3, model, scalar_coupling(),
                   increments=np.zeros((5, 2)))

    def test_rejects_bad_time_arguments(self, grid_1d, no_noise_1d):
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        with pytest.raises(ValueError):
            evolve(st_, 1.0, -1e-3, no_noise_1d, scalar_coupling(), seed=0)
        with pytest.raises(ValueError):
            evolve(st_, 1.0, 1e-3, no_noise_1d, scalar_coupling(), seed=0, record_every=0)

    def test_zero_component_stays_exactly_zero(self, grid_1d):
        # every term of v's equation carries v, and the sigma < 1 mixed term
        # is masked where |v| vanishes, so v0 = 0 stays 0 in every bit
        model = build_noise_model(NoiseSpec(K=2, a0=0.5), grid_1d)
        with pytest.warns(UserWarning, match="asymmetric"):
            c = Coupling(0.5, np.array([[1.0, 0.0], [0.8, 1.0]]), allow_asymmetric=True)
        st_ = make_state(grid_1d, 1.5 * np.exp(-grid_1d.x[0] ** 2))
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            res = evolve(st_, 0.05, 1e-3, model, c, seed=8, record_every=10)
        assert res.outcome == "completed"
        assert res.state.v.view(np.uint64).max() == 0
        assert not np.any(res.record.mass_v)
        assert np.all(res.record.mass_u > 0)

    def test_dealias_flag_removes_spectral_tail(self, grid_1d, no_noise_1d):
        # seed the spectral tail explicitly; the 2/3-rule step clears it
        coeffs = np.zeros(grid_1d.shape, dtype=complex)
        coeffs[grid_1d.n // 2 - 5] = 1.0  # |m| well above n/3
        coeffs[1] = 1.0
        u = np.fft.ifftn(coeffs)
        st_ = make_state(grid_1d, u)
        c = scalar_coupling(0.0 + 1e-12, 1.0)
        plain = strang_step(st_, 1e-3, no_noise_1d, np.zeros(0), scalar_coupling(1.0))
        cut = strang_step(st_, 1e-3, no_noise_1d, np.zeros(0), scalar_coupling(1.0),
                          dealias=True)
        tail_plain = np.abs(np.fft.fftn(plain.u))[grid_1d.tail_mask].max()
        tail_cut = np.abs(np.fft.fftn(cut.u))[grid_1d.tail_mask].max()
        assert tail_plain > 0.5
        assert tail_cut < 1e-10


def reference_strang_step(st_, dt, model, inc, c, dealias=False):
    """L(dt/2) W(dB) N(dt) L(dt/2) from fresh numpy temporaries, as printed.

    The dealiasing mask goes with the leading half-flow, which a held state
    merges with the trailing half-flow of the step before.
    """
    g = st_.grid
    s = c.sigma

    def multiplier(a, b, l_self, l_mixed):
        mixed = np.zeros_like(a)
        keep = a > 1e-300
        mixed[keep] = b[keep] ** (s + 1.0) * a[keep] ** (s - 1.0)
        return l_self * a ** (2.0 * s) + l_mixed * mixed

    def phase(u, v):
        au, av = np.abs(u), np.abs(v)
        return (u * np.exp(1j * dt * multiplier(au, av, c.l11, c.l12)),
                v * np.exp(1j * dt * multiplier(av, au, c.l22, c.l21)))

    half = np.exp(-0.5j * g.k_sq * dt)
    keep = g.dealias_mask() if dealias else 1.0
    u = np.fft.ifftn(np.fft.fftn(st_.u) * half * keep)
    v = np.fft.ifftn(np.fft.fftn(st_.v) * half * keep)
    if model.K:
        u = u * np.exp(-1j * np.tensordot(inc, model.modes_u, axes=(0, 0)))
        v = v * np.exp(-1j * np.tensordot(inc, model.modes_v, axes=(0, 0)))
    u, v = phase(u, v)
    return np.fft.ifftn(np.fft.fftn(u) * half), np.fft.ifftn(np.fft.fftn(v) * half)


class TestKernel:
    """The in-place split-step kernel against its value-semantics contract."""

    def _pair(self, grid, seed):
        rng = np.random.default_rng(seed)
        return make_state(grid, random_smooth_field(grid, rng, scale=2.0),
                          random_smooth_field(grid, rng, scale=1.5))

    def test_evolve_leaves_initial_state_unchanged(self, grid_2d):
        st_ = self._pair(grid_2d, 11)
        u0, v0 = st_.u.copy(), st_.v.copy()
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_2d)
        lam = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = evolve(st_, 0.01, 1e-3, model, Coupling(1.0, lam), seed=3,
                     record_every=5, track_identities=False)
        assert res.steps == 10
        np.testing.assert_array_equal(st_.u, u0)
        np.testing.assert_array_equal(st_.v, v0)
        assert st_.t == 0.0 and not st_.blown_up

    def test_step_and_phase_leave_input_unchanged(self, grid_2d):
        st_ = self._pair(grid_2d, 12)
        u0, v0 = st_.u.copy(), st_.v.copy()
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_2d)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        stepped = strang_step(st_, 1e-3, model, np.array([0.01, -0.02]), c, dealias=True)
        rotated = nonlinear_phase(st_, 1e-3, c)
        for out in (stepped, rotated):
            assert out is not st_
            assert not np.shares_memory(out.u, st_.u)
            assert not np.shares_memory(out.v, st_.v)
        np.testing.assert_array_equal(st_.u, u0)
        np.testing.assert_array_equal(st_.v, v0)
        assert st_.t == 0.0
        assert stepped.t == 1e-3

    def test_workspace_dt_mismatch_rejected(self, grid_1d, no_noise_1d):
        from scnls.dynamics import Workspace

        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        with pytest.raises(ValueError, match="workspace"):
            strang_step(st_, 1e-3, no_noise_1d, np.zeros(0), scalar_coupling(),
                        work=Workspace(grid_1d, 2e-3))

    @pytest.mark.parametrize("sigma, dealias, K", [(1.0, False, 2), (1.0, True, 0),
                                                   (0.5, False, 2), (1.7, True, 1)])
    def test_step_matches_plain_numpy_reference(self, grid_2d, sigma, dealias, K):
        st_ = self._pair(grid_2d, 13)
        st_.u[:3, :] = 0.0  # exact zeros exercise the mixed-term mask
        model = build_noise_model(NoiseSpec(K=K, a0=0.3), grid_2d)
        # the asymmetric matrix tells (l11, l12) for u from (l22, l21) for v
        with pytest.warns(UserWarning, match="asymmetric"):
            asymmetric = Coupling(sigma, np.array([[1.2, -0.4], [0.3, 0.8]]),
                                  allow_asymmetric=True)
        inc = np.linspace(-0.05, 0.05, K)
        dt = 2e-3
        for c in (Coupling(sigma, np.array([[1.2, -0.4], [-0.4, 0.8]])), asymmetric):
            out = strang_step(st_, dt, model, inc, c, dealias=dealias)
            ref_u, ref_v = reference_strang_step(st_, dt, model, inc, c, dealias)
            for got, ref in ((out.u, ref_u), (out.v, ref_v)):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_diagnostics_match_plain_numpy(self, grid_2d):
        from scnls.dynamics import Workspace, _spectral_diagnostics

        rng = np.random.default_rng(15)
        u, v = rng.standard_normal((2,) + grid_2d.shape) + 1j * rng.standard_normal(
            (2,) + grid_2d.shape)
        power = np.abs(np.fft.fftn(u)) ** 2 + np.abs(np.fft.fftn(v)) ** 2
        scale = grid_2d.spacing**2 / grid_2d.node_count
        (grad,), (tail,) = _spectral_diagnostics(make_state(grid_2d, u, v), Workspace(grid_2d))
        assert grad == pytest.approx(np.sum(grid_2d.k_sq * power) * scale, rel=1e-13)
        assert tail == pytest.approx(power[grid_2d.tail_mask].sum() / power.sum(), rel=1e-13)
        assert 0.4 < tail < 0.7  # white noise fills the top third of the spectrum

    @staticmethod
    def _held_diagnostics(grid, rows, runner, dt=1e-3):
        """Diagnostics of a held batch after two steps, and of its materialised state.

        Also checks that the diagnostics and the materialisation leave the
        live rows of the held spectrum as they were.
        """
        from scnls.dynamics import Workspace, _enter, _materialise, _spectral_diagnostics

        rng = np.random.default_rng(16)
        fields = rng.standard_normal((2, 2) + grid.shape) + 0j
        fields[0] *= len(rows) - 1  # a dead row is zero in every path
        state = SystemState.of_pair(fields, 0.0, grid)
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid)
        work = Workspace(grid, dt, fields.shape)
        work.rows, work.runner = rows, runner
        try:
            _enter(state, work)
            for inc in ([[0.01, -0.02], [0.03, 0.0]], [[-0.01, 0.02], [0.0, 0.01]]):
                strang_step(state, dt, model, np.array(inc),
                            Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]])), work=work)
            held = work.held[list(rows)].tobytes()
            got = _spectral_diagnostics(state, work)
            _materialise(state, work)
        finally:
            work.runner.close()
        assert work.held[list(rows)].tobytes() == held
        for i in rows:  # the spectra the recorder gets are those of the fields
            ref = grid.fft(fields[i])
            assert np.max(np.abs(work.spectra[i] - ref)) <= 1e-13 * np.max(np.abs(ref))
        return got, _spectral_diagnostics(state)

    @pytest.mark.parametrize("rows", [(0, 1), (1,)], ids=["both_live", "row0_dead"])
    @pytest.mark.parametrize("split", [False, True], ids=["one_chunk", "split"])
    def test_diagnostics_read_the_held_spectrum(self, grid_2d, rows, split):
        # |w_hat| is |u_hat|, so the diagnostics of a held state take no
        # transform; they and the materialisation leave w_hat alone
        from scnls.phases import _OneChunk, _Split

        runner = _Split(grid_2d) if split else _OneChunk()
        (grad, tail), (ref_grad, ref_tail) = self._held_diagnostics(grid_2d, rows, runner)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(tail, ref_tail, rtol=1e-12, atol=0.0)

    def test_diagnostics_read_the_held_spectrum_1d(self, grid_1d):
        from scnls.phases import _OneChunk

        for rows in ((0, 1), (1,)):
            (grad, tail), (ref_grad, ref_tail) = self._held_diagnostics(grid_1d, rows,
                                                                        _OneChunk())
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(tail, ref_tail, rtol=1e-12, atol=0.0)

    @staticmethod
    def _fresh_steps(state, dt, model, increments, c, dealias=False):
        """One standalone strang_step per row of ``increments``, each on a fresh workspace."""
        for inc in increments:
            state = strang_step(state, dt, model, inc, c, dealias=dealias)
        return state

    @staticmethod
    def _assert_round_off(got, ref):
        for g, r in zip(got.fields, ref.fields):
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))

    def test_held_state_is_a_round_off_change_1d(self, grid_1d, monkeypatch):
        # evolve holds w_hat from step to step, where each standalone step
        # holds and materialises its state: N computes each live row once a
        # step either way
        from scnls import dynamics

        model = build_noise_model(NoiseSpec(K=2, a0=0.3), grid_1d)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        st_ = self._pair(grid_1d, 17)
        dt, n = 1e-3, 50
        inc = np.random.default_rng(18).standard_normal((n, 2)) * np.sqrt(dt)
        calls = []
        multiplier = dynamics._phase_multiplier
        monkeypatch.setattr(dynamics, "_phase_multiplier",
                            lambda *args: calls.append(1) or multiplier(*args))
        res = evolve(st_, n * dt, dt, model, c, increments=inc, record_every=10,
                     track_identities=True)
        assert res.outcome == "completed" and res.steps == n
        assert len(calls) == 2 * n
        self._assert_round_off(res.state, self._fresh_steps(st_, dt, model, inc, c))

    @pytest.mark.parametrize("split", [False, True], ids=["one_chunk", "split"])
    def test_held_state_is_a_round_off_change_2d(self, grid_2d, split, monkeypatch):
        from scnls import phases

        monkeypatch.setattr(phases, "_SPLIT_NODES", 0 if split else np.inf)
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_2d)
        c = Coupling(0.5, np.array([[1.0, 0.5], [0.5, 1.0]]))
        st_ = self._pair(grid_2d, 19)
        dt, n = 1e-3, 50
        inc = np.random.default_rng(20).standard_normal((n, 2)) * np.sqrt(dt)
        res = evolve(st_, n * dt, dt, model, c, increments=inc, record_every=25,
                     track_identities=False, dealias=True)
        assert res.outcome == "completed" and res.steps == n
        self._assert_round_off(res.state, self._fresh_steps(st_, dt, model, inc, c, True))

    @pytest.mark.parametrize("split", [False, True], ids=["one_chunk", "split"])
    def test_records_and_detector_leave_the_path_bitwise(self, grid_1d, grid_2d, split,
                                                         monkeypatch):
        # materialising reads w_hat and writes other buffers, so how often a
        # path is recorded or diagnosed moves none of its bits
        from scnls import BlowupDetector, phases
        from scnls.dynamics import _spectral_diagnostics

        monkeypatch.setattr(phases, "_SPLIT_NODES", 0 if split else np.inf)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        noisy = build_noise_model(NoiseSpec(K=2, a0=0.3), grid_1d)
        never = BlowupDetector(np.inf, np.inf)
        st_ = self._pair(grid_1d, 22)
        paths = [evolve(st_, 0.05, 1e-3, noisy, c, seed=3, record_every=every, detector=d,
                        track_identities=False)
                 for every, d in ((1, None), (7, None), (7, never))]
        g = grid_2d
        collapse = make_state(g, 4.5 * np.exp(-g.r_sq), 0.5 * np.exp(-g.r_sq))
        fires = BlowupDetector.for_initial(_spectral_diagnostics(collapse)[0][0])
        collapses = [evolve(collapse, 0.2, 1e-3, build_noise_model(NoiseSpec(), g), c,
                            record_every=every, detector=fires, track_identities=False)
                     for every in (1, 7)]
        assert collapses[0].outcome == "blowup" and paths[0].outcome == "completed"
        for first, *others in (paths, collapses):
            for other in others:
                assert (other.outcome, other.t_star, other.steps) == (
                    first.outcome, first.t_star, first.steps)
                assert other.state.fields.tobytes() == first.state.fields.tobytes()

    def test_integer_sigma_mixed_term_matches_power_formula(self):
        from scnls.dynamics import _TINY_MODULUS, _phase_multiplier

        rng = np.random.default_rng(14)
        a = rng.random(64) * 2.0
        b = rng.random(64) * 2.0
        a[:4] = 0.0          # exact zeros
        a[4:6] = 1e-301      # below the cutoff, not zero
        b[6:8] = 0.0
        l_self, l_mixed = 1.3, -0.7
        for sigma in (1.0, 0.5, 1.7):
            mixed = np.zeros_like(a)
            keep = a > _TINY_MODULUS
            mixed[keep] = b[keep] ** (sigma + 1.0) * a[keep] ** (sigma - 1.0)
            expected = l_self * a ** (2.0 * sigma) + l_mixed * mixed
            out, tmp, tmp2 = np.empty_like(a), np.empty_like(a), np.empty_like(a)
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                got = _phase_multiplier(a, b, l_self, l_mixed, sigma, out, tmp, tmp2)
            assert got is out
            assert np.all(got[:6] == l_self * a[:6] ** (2.0 * sigma))
            if sigma == 1.0:
                np.testing.assert_array_equal(got, expected)
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)

    def test_unit_self_coefficient_keeps_every_bit(self):
        # a unit l_self skips its multiply, which must leave the bits of
        # x * 1.0: +-0, +-inf, subnormals and quiet NaN payloads included,
        # written through the strided parts of complex arrays as N writes them
        from scnls.dynamics import _phase_multiplier

        class Unit(float):
            # equal to 1.0 as a factor, but never skipped by the guard
            def __ne__(self, other):
                return True

        nans = np.array([0x7FF8000000000123, 0xFFF80000000ABCDE], dtype=np.uint64).view(float)
        a = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                             np.finfo(float).tiny / 3.0, 1.5, -2.5, 1e-301], nans])
        b = a[::-1].copy()
        product = np.empty(a.size, dtype=complex).real
        np.multiply(a, 1.0, out=product)
        assert product.tobytes() == a.tobytes()
        for sigma in (1.0, 0.75):
            for l_mixed in (0.0, 0.5):
                results = []
                for l_self in (1.0, Unit(1.0)):
                    pair, spare = (np.empty(a.size, dtype=complex) for _ in range(2))
                    with np.errstate(all="ignore"):
                        results.append(_phase_multiplier(a, b, l_self, l_mixed, sigma,
                                                         pair.real, pair.imag, spare.real))
                assert results[0].tobytes() == results[1].tobytes()


class TestBatch:
    """A batch of paths on a leading axis equals each path evolved alone, bitwise."""

    @staticmethod
    def _batch(states):
        g = states[0].grid
        return SystemState(np.stack([s.u for s in states]), np.stack([s.v for s in states]),
                           0.0, g)

    @staticmethod
    def _assert_same(got, alone):
        assert (got.outcome, got.t_star, got.steps) == (alone.outcome, alone.t_star, alone.steps)
        assert (got.effective_T, got.dropped_remainder) == (
            alone.effective_T, alone.dropped_remainder)
        for name, value in vars(alone.record).items():
            np.testing.assert_array_equal(getattr(got.record, name), value, err_msg=name)
        np.testing.assert_array_equal(got.state.u, alone.state.u)
        np.testing.assert_array_equal(got.state.v, alone.state.v)
        assert got.state.t == alone.state.t and got.state.blown_up == alone.state.blown_up

    def test_1d_noise_tracked_identities(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_1d)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        rng = np.random.default_rng(21)
        states = [make_state(grid_1d, random_smooth_field(grid_1d, rng, scale=a),
                             random_smooth_field(grid_1d, rng)) for a in (0.8, 1.2, 1.6)]
        seeds = [5, 6, 7]
        kwargs = dict(record_every=3, track_identities=True)
        batch = evolve(self._batch(states), 0.05, 1e-3, model, c, seed=seeds, **kwargs)
        assert len(batch) == 3
        for st_, s, got in zip(states, seeds, batch):
            alone = evolve(st_, 0.05, 1e-3, model, c, seed=s, **kwargs)
            assert got.outcome == "completed" and len(got.record) == 18
            assert np.any(got.record.stoch_energy != 0) and np.any(got.record.stoch_G != 0)
            self._assert_same(got, alone)

    def test_2d_path_leaves_on_blowup(self, grid_2d):
        from scnls import BlowupDetector
        from scnls.dynamics import _spectral_diagnostics

        g = grid_2d
        model = build_noise_model(NoiseSpec(K=2, a0=0.1), g)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        # the middle path collapses first, the last one not at all
        states = [make_state(g, a * np.exp(-g.r_sq), 0.5 * np.exp(-g.r_sq))
                  for a in (3.6, 4.5, 2.5)]
        detectors = [BlowupDetector.for_initial(_spectral_diagnostics(s)[0][0]) for s in states]
        kwargs = dict(record_every=25, track_identities=True)
        batch = evolve(self._batch(states), 0.2, 1e-3, model, c, seed=[1, 2, 3],
                       detector=detectors, **kwargs)
        alone = [evolve(s, 0.2, 1e-3, model, c, seed=seed, detector=d, **kwargs)
                 for s, seed, d in zip(states, [1, 2, 3], detectors)]
        assert [r.outcome for r in alone] == ["blowup", "blowup", "completed"]
        assert alone[1].steps < alone[0].steps < alone[2].steps
        for got, ref in zip(batch, alone):
            self._assert_same(got, ref)

    def test_seeds_and_given_increments_are_one_source(self, grid_1d):
        # seed s drives a path exactly as the increments drawn step by step
        # from default_rng(s) do, also when a path leaves the batch early
        from scnls.noise import sample_increments

        model = build_noise_model(NoiseSpec(K=2, a0=0.3), grid_1d)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        x = grid_1d.x[0]
        states = [make_state(grid_1d, a * np.exp(-x**2), 0.5 * np.exp(-x**2))
                  for a in (0.8, 1.2, 1.6)]
        seeds, T, dt = [11, 12, 13], 0.05, 1e-3

        def fires_at_step(n):
            """A detector that fires at its n-th call: evolve calls it every step."""
            calls = itertools.count(1)
            return lambda grad, tail: next(calls) >= n

        def run(**source):
            detectors = [None, fires_at_step(10), None]
            return evolve(self._batch(states), T, dt, model, c, detector=detectors,
                          record_every=5, track_identities=True, **source)

        rngs = [np.random.default_rng(s) for s in seeds]
        increments = np.array([[sample_increments(model.K, dt, rng) for _ in range(50)]
                               for rng in rngs])
        seeded, given = run(seed=seeds), run(increments=increments)
        assert [r.outcome for r in seeded] == ["completed", "blowup", "completed"]
        assert seeded[1].t_star == pytest.approx(10 * dt)
        assert np.all(seeded[0].record.stoch_energy[1:] != 0)
        for got, ref in zip(given, seeded):
            self._assert_same(got, ref)

    def test_nan_path_leaves_as_invalid(self, grid_1d):
        import warnings

        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_1d)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        x = grid_1d.x[0]
        poisoned = np.exp(-x**2).astype(complex)
        poisoned[7] = np.nan
        states = [make_state(grid_1d, np.exp(-x**2), 0.5 * np.exp(-x**2)),
                  make_state(grid_1d, poisoned),
                  make_state(grid_1d, 1.3 * np.exp(-x**2))]
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            batch = evolve(self._batch(states), 0.02, 1e-3, model, c, seed=[4, 5, 6],
                           record_every=4)
        assert [r.outcome for r in batch] == ["completed", "invalid", "completed"]
        assert batch[1].steps == 1 and batch[1].state.blown_up
        for st_, s, got in zip(states, [4, 5, 6], batch):
            self._assert_same(got, evolve(st_, 0.02, 1e-3, model, c, seed=s, record_every=4))

    @staticmethod
    def _dead_row_cases(grid_1d, grid_2d):
        """(model, coupling, T, evolve kwargs, outcome, path with a dead row, companion)."""
        from scnls import BlowupDetector
        from scnls.dynamics import _spectral_diagnostics

        x, g = grid_1d.x[0], grid_2d
        noise_1d = build_noise_model(NoiseSpec(K=2, a0=0.5), grid_1d)
        mixed = np.array([[1.0, 0.5], [0.5, 1.0]])
        tracked = dict(seed=[3, 4], record_every=5, track_identities=True)
        collapse = make_state(g, 4.5 * np.exp(-g.r_sq))
        detector = BlowupDetector.for_initial(_spectral_diagnostics(collapse)[0][0])
        return {
            "v0 = 0, sigma = 0.5": (
                noise_1d, Coupling(0.5, mixed), 0.05, tracked, "completed",
                make_state(grid_1d, 1.5 * np.exp(-x**2)),
                make_state(grid_1d, np.exp(-x**2), 0.7 * np.exp(-x**2))),
            "u0 = 0": (
                noise_1d, Coupling(1.0, mixed), 0.05, tracked, "completed",
                make_state(grid_1d, np.zeros(grid_1d.shape), 1.5 * np.exp(-x**2)),
                make_state(grid_1d, 0.5 * np.exp(-x**2), np.exp(-x**2))),
            "2D collapse": (
                build_noise_model(NoiseSpec(K=2, a0=0.1), g), Coupling(1.0, mixed), 0.2,
                dict(tracked, seed=[1, 2], record_every=25, detector=detector), "blowup",
                collapse, make_state(g, 2.5 * np.exp(-g.r_sq), 0.5 * np.exp(-g.r_sq))),
        }

    def test_dead_row_skip_matches_live_row(self, grid_1d, grid_2d):
        # alone, the dead row is skipped; in a batch with a companion whose
        # same row is live, it is computed on its zeros
        cases = self._dead_row_cases(grid_1d, grid_2d)
        for label, (model, c, T, kwargs, outcome, path, companion) in cases.items():
            alone = evolve(path, T, 1e-3, model, c, **dict(kwargs, seed=kwargs["seed"][0]))
            batch = evolve(self._batch([path, companion]), T, 1e-3, model, c, **kwargs)
            assert (alone.outcome, batch[1].outcome) == (outcome, "completed"), label
            self._assert_same(batch[0], alone)

    @pytest.mark.parametrize("sigma, amplitude", [(2.0, 1e100), (0.5, 1e250)])
    def test_dead_row_revives_when_its_mixed_term_overflows(self, grid_1d, sigma,
                                                             amplitude):
        # sigma = 0.5: u stays finite, but v's mixed term 0 * |u|^(s+1) is
        # 0 * inf in N, so v must not be left at 0.  sigma = 2: |u|^(2 sigma)
        # overflows in N and u turns NaN, but v's multiplier comes from the
        # moduli before N, and the path leaves at that step: v is 0, as
        # computing it in the batch gives
        x = grid_1d.x[0]
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_1d)
        c = Coupling(sigma, np.array([[1.0, 0.5], [0.5, 1.0]]))
        huge = make_state(grid_1d, amplitude * np.exp(-x**2))
        companion = make_state(grid_1d, 0.5 * np.exp(-x**2), 0.5 * np.exp(-x**2))
        with np.errstate(over="ignore", invalid="ignore"):
            alone = evolve(huge, 0.01, 1e-3, model, c, seed=4, record_every=2)
            batch = evolve(self._batch([huge, companion]), 0.01, 1e-3, model, c,
                           seed=[4, 5], record_every=2)
        assert alone.outcome == "invalid" and alone.steps == 1
        if sigma == 0.5:
            assert np.isnan(alone.state.v).any()
        else:
            assert not alone.state.v.any()
        assert batch[1].outcome == "completed"
        # equal with NaN at the same nodes; the sign bit of a NaN that went
        # through a transform of the batch may differ, with or without a dead row
        self._assert_same(batch[0], alone)

    def test_per_path_arguments_checked(self, grid_1d, no_noise_1d):
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        pair = self._batch([st_, st_])
        with pytest.raises(ValueError, match="one entry per path"):
            evolve(pair, 0.01, 1e-3, no_noise_1d, scalar_coupling(), seed=[1])
        with pytest.raises(ValueError, match="increments"):
            evolve(pair, 0.01, 1e-3, no_noise_1d, scalar_coupling(),
                   increments=np.zeros((10, 0)))


class TestSplitStep:
    """A 2D step split over row and column halves on two threads equals the one-chunk step.

    The split is forced on for the small test grid, or off, through the
    node count from which ``evolve`` splits.
    """

    @staticmethod
    def _evolve(monkeypatch, split, *args, **kwargs):
        from scnls import phases

        monkeypatch.setattr(phases, "_SPLIT_NODES", 0 if split else np.inf)
        return evolve(*args, **kwargs)

    @staticmethod
    def _assert_bitwise(got, ref):
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert (a.outcome, a.t_star, a.steps) == (b.outcome, b.t_star, b.steps)
            assert (a.state.t, a.state.blown_up) == (b.state.t, b.state.blown_up)
            assert a.state.fields.tobytes() == b.state.fields.tobytes()
            for name, value in vars(b.record).items():
                other = getattr(a.record, name)
                if isinstance(value, np.ndarray):
                    assert other.tobytes() == value.tobytes(), name
                else:
                    assert other == value, name

    @staticmethod
    def _counting(detectors, seen):
        """The detectors, each noting the live thread count when called."""
        import threading

        def spy(detect):
            def call(grad, tail):
                seen.add(threading.active_count())
                return detect(grad, tail)
            return call
        return [spy(d) for d in detectors]

    @staticmethod
    def _splits_here():
        import os

        return len(os.sched_getaffinity(0)) >= 2

    def test_batch_with_live_rows_leaving_on_blowup(self, grid_2d, monkeypatch):
        import threading

        from scnls import BlowupDetector
        from scnls.dynamics import _spectral_diagnostics

        g = grid_2d
        model = build_noise_model(NoiseSpec(K=2, a0=0.1), g)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        # the first path collapses, the second does not
        states = [make_state(g, a * np.exp(-g.r_sq), 0.5 * np.exp(-g.r_sq)) for a in (4.5, 2.5)]
        batch = TestBatch._batch(states)
        detectors = [BlowupDetector.for_initial(_spectral_diagnostics(s)[0][0]) for s in states]
        kwargs = dict(seed=[1, 2], record_every=25, track_identities=True)
        before = threading.active_count()
        seen = set()
        split = self._evolve(monkeypatch, True, batch, 0.2, 1e-3, model, c,
                             detector=self._counting(detectors, seen), **kwargs)
        assert threading.active_count() == before
        assert seen == {before + 1 if self._splits_here() else before}
        one = self._evolve(monkeypatch, False, batch, 0.2, 1e-3, model, c,
                           detector=detectors, **kwargs)
        assert [r.outcome for r in one] == ["blowup", "completed"]
        assert np.any(one[1].record.stoch_energy != 0)
        self._assert_bitwise(split, one)

    def test_dead_row(self, grid_2d, monkeypatch):
        g = grid_2d
        model = build_noise_model(NoiseSpec(K=2, a0=0.3), g)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        states = [make_state(g, a * np.exp(-g.r_sq)) for a in (1.5, 2.0)]
        kwargs = dict(seed=[3, 4], record_every=5, track_identities=True, dealias=True)
        split, one = (self._evolve(monkeypatch, s, TestBatch._batch(states), 0.03, 1e-3,
                                   model, c, **kwargs) for s in (True, False))
        assert [r.outcome for r in one] == ["completed"] * 2
        assert not one[0].state.v.any()
        self._assert_bitwise(split, one)

    def test_dead_row_revived_in_one_half(self, grid_2d, monkeypatch):
        # the first path's |u|^(s+1) overflows in the second half of the rows
        # only, so only that half revives the dead row in the first N, which
        # sees the field after the free flow of half a step
        g = grid_2d
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), g)
        c = Coupling(0.5, np.array([[1.0, 0.5], [0.5, 1.0]]))
        huge = 1e210 * np.exp(-4.0 * ((g.x[0] - 4.0) ** 2 + g.x[1] ** 2))
        first = np.abs(free_propagate(g, huge, 0.5e-3))
        with np.errstate(over="ignore"):
            assert not np.isfinite(first[g.n // 2:] ** 1.5).all()
        assert np.isfinite(first[: g.n // 2] ** 1.5).all()
        batch = make_state(g, np.stack([huge, 0.5 * np.exp(-g.r_sq)]),
                           np.zeros((2,) + g.shape))
        with np.errstate(over="ignore", invalid="ignore"):
            split, one = (self._evolve(monkeypatch, s, batch, 0.01, 1e-3, model, c,
                                       seed=[4, 5], record_every=2) for s in (True, False))
        assert [r.outcome for r in one] == ["invalid", "completed"]
        self._assert_bitwise(split[1:], one[1:])
        # equal with NaN at the same nodes; NaN sign bits may differ
        TestBatch._assert_same(split[0], one[0])

    def test_no_factor_reused_after_one_half_revived(self, grid_2d):
        # the first path's |u|^(s+1) is finite at the first step's N and,
        # once the chirped peak has focused under L, overflows at the second
        # step's N in the second half of the rows only.  That half revives
        # the dead v and writes its factor into spectra; the first half never
        # writes v's there, so the third step's N must compute it rather than
        # read the NaN left there
        from scnls.dynamics import Workspace, _enter, _materialise
        from scnls.phases import _OneChunk, _Split

        g = grid_2d
        model = build_noise_model(NoiseSpec(K=0), g)
        c = Coupling(0.5, np.array([[0.0, 0.5], [0.5, 1.0]]))  # u never rotates
        dt = 1e-3
        below = np.finfo(float).max ** (1.0 / 1.5) / 1.006
        chirped = below * np.exp(-(1.0 + 3.0j) * ((g.x[0] - 4.0) ** 2 + g.x[1] ** 2))
        assert np.isfinite(np.abs(chirped).max() ** 1.5)
        assert np.isfinite(np.abs(free_propagate(g, chirped, 0.5 * dt)) ** 1.5).all()
        focused = np.abs(free_propagate(g, chirped, 1.5 * dt))
        with np.errstate(over="ignore"):
            assert not np.isfinite(focused[g.n // 2:] ** 1.5).all()
        assert np.isfinite(focused[: g.n // 2] ** 1.5).all()
        pair = make_state(g, np.stack([chirped, 0.5 * np.exp(-g.r_sq)]),
                          np.zeros((2,) + g.shape)).fields
        steps = []
        for split in (False, True):
            state = SystemState.of_pair(pair.copy(), 0.0, g)
            work = Workspace(g, dt, pair.shape)
            # the helper thread takes the error state its runner is made in
            with np.errstate(over="ignore", invalid="ignore"):
                work.rows, work.runner = (0,), _Split(g) if split else _OneChunk()
                try:
                    _enter(state, work)
                    work.spectra.fill(np.nan)
                    strang_step(state, dt, model, np.zeros((2, 0)), c, work=work)
                    assert work.rows == (0,)
                    strang_step(state, dt, model, np.zeros((2, 0)), c, work=work)
                    assert work.rows == (0, 1)
                    assert np.isnan(work.held[1, 0]).any()
                    strang_step(state, dt, model, np.zeros((2, 0)), c, work=work)
                    _materialise(state, work)
                finally:
                    work.runner.close()
            assert np.isfinite(state.fields[:, 1]).all()
            steps.append(state.fields)
        one, split = steps
        assert split[:, 1].tobytes() == one[:, 1].tobytes()
        # equal with NaN at the same nodes; NaN sign bits may differ
        np.testing.assert_array_equal(split[:, 0], one[:, 0])

    def test_helper_ends_when_evolve_raises(self, grid_2d, monkeypatch):
        import threading

        g = grid_2d
        model = build_noise_model(NoiseSpec(), g)
        before = threading.active_count()

        def detector(grad, tail):
            raise RuntimeError("detector failed")

        st_ = make_state(g, np.exp(-g.r_sq))
        with pytest.raises(RuntimeError, match="detector failed"):
            self._evolve(monkeypatch, True, st_, 0.01, 1e-3, model, scalar_coupling(),
                         detector=detector)
        assert threading.active_count() == before

    def test_helper_raises_under_the_callers_error_state(self, grid_2d):
        import threading

        from scnls.phases import _Split

        caller = threading.get_ident()
        helper_took = threading.Event()

        def phase(index, axis):
            if threading.get_ident() == caller:
                # holds its chunk until the helper has taken the other one
                assert helper_took.wait(timeout=30)
            else:
                helper_took.set()
                np.square(np.array([1e200]))

        before = threading.active_count()
        with np.errstate(over="raise"):
            runner = _Split(grid_2d)
        try:
            with pytest.raises(FloatingPointError):
                runner.run(phase, runner.rows)
            runner.run(lambda index, axis: None, runner.cols)
        finally:
            runner.close()
        assert threading.active_count() == before

    def test_every_chunk_runs_once_before_run_returns(self, grid_2d):
        # the two threads share each phase's chunk iterator and count of
        # finished chunks; frequent thread switches must not let a chunk run
        # twice, be skipped, or finish after run() has returned
        import sys
        import threading

        from scnls.phases import _Split

        runs = []

        def loop():
            runner = _Split(grid_2d)
            try:
                for p in range(2000):
                    chunks, ran = (runner.rows if p % 2 else runner.cols), []

                    def phase(index, axis, chunks=chunks, ran=ran):
                        ran.append(chunks.index((index, axis)))
                    runner.run(phase, chunks)
                    runs.append(sorted(ran))
            finally:
                runner.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=loop, daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert runs == [[0, 1]] * 2000
