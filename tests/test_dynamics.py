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

from conftest import make_state, random_smooth_field, scalar_coupling


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


class TestStrangStep:
    def test_free_limit(self, grid_1d, no_noise_1d):
        rng = np.random.default_rng(1)
        u = random_smooth_field(grid_1d, rng)
        v = random_smooth_field(grid_1d, rng)
        st_ = make_state(grid_1d, u, v)
        out = strang_step(st_, 0.01, no_noise_1d, np.zeros(0), Coupling(1.0, np.zeros((2, 2))))
        np.testing.assert_allclose(out.u, grid_1d.free_propagate(u, 0.01), atol=1e-13)
        np.testing.assert_allclose(out.v, grid_1d.free_propagate(v, 0.01), atol=1e-13)
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
    """N(dt/2) L(dt) W(dB) N(dt/2) from fresh numpy temporaries, as printed."""
    g = st_.grid
    s = c.sigma

    def multiplier(a, b, l_self, l_mixed):
        mixed = np.zeros_like(a)
        keep = a > 1e-300
        mixed[keep] = b[keep] ** (s + 1.0) * a[keep] ** (s - 1.0)
        return l_self * a ** (2.0 * s) + l_mixed * mixed

    def half_phase(u, v):
        au, av = np.abs(u), np.abs(v)
        return (u * np.exp(0.5j * dt * multiplier(au, av, c.l11, c.l12)),
                v * np.exp(0.5j * dt * multiplier(av, au, c.l22, c.l21)))

    u, v = half_phase(st_.u, st_.v)
    lin = np.exp(-1j * g.k_sq * dt)
    keep = g.dealias_mask() if dealias else 1.0
    u = np.fft.ifftn(np.fft.fftn(u) * lin * keep)
    v = np.fft.ifftn(np.fft.fftn(v) * lin * keep)
    if model.K:
        u = u * np.exp(-1j * np.tensordot(inc, model.modes_u, axes=(0, 0)))
        v = v * np.exp(-1j * np.tensordot(inc, model.modes_v, axes=(0, 0)))
    return half_phase(u, v)


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

    def test_per_path_arguments_checked(self, grid_1d, no_noise_1d):
        st_ = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        pair = self._batch([st_, st_])
        with pytest.raises(ValueError, match="one entry per path"):
            evolve(pair, 0.01, 1e-3, no_noise_1d, scalar_coupling(), seed=[1])
        with pytest.raises(ValueError, match="increments"):
            evolve(pair, 0.01, 1e-3, no_noise_1d, scalar_coupling(),
                   increments=np.zeros((10, 0)))
