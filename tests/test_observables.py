import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from scnls import (
    Coupling,
    NoiseSpec,
    blowup_criterion,
    build_noise_model,
    corollary_energy_bound,
    criterion_lhs,
    energy_budget,
    evolve,
    hamiltonian,
    mass,
    momentum_G,
    variance,
    virial_residuals,
)

from scnls.dynamics import SystemState, Workspace, _node_sums, _spectral_diagnostics
from scnls.grid import Grid
from scnls.observables import _ROW_NAMES, TrajectoryRecorder, _criterion_extrema, _ito_terms

from conftest import make_state, random_smooth_field, scalar_coupling

SQRT_PI_OVER_2 = np.sqrt(np.pi / 2)


class TestMass:
    def test_zero_state(self, grid_1d):
        st = make_state(grid_1d, np.zeros(grid_1d.shape))
        assert mass(st) == (0.0, 0.0, 0.0)

    def test_gaussian_oracle(self, grid_1d):
        oracle, _ = quad(lambda x: np.exp(-2 * x**2), -np.inf, np.inf)
        st = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        mu, mv, tot = mass(st)
        assert mu == pytest.approx(oracle, abs=1e-12)
        assert mv == 0.0
        assert tot == pytest.approx(1.2533141, abs=1e-6)

    def test_sech_pair(self, grid_1d):
        profile = np.sqrt(2) / np.cosh(grid_1d.x[0])
        st = make_state(grid_1d, profile, profile)
        mu, mv, tot = mass(st)
        assert mu == pytest.approx(4.0, abs=1e-12)
        assert mv == pytest.approx(4.0, abs=1e-12)
        assert tot == pytest.approx(8.0, abs=1e-12)


class TestHamiltonian:
    def test_zero_state(self, grid_1d):
        st = make_state(grid_1d, np.zeros(grid_1d.shape))
        assert hamiltonian(st, scalar_coupling()) == 0.0

    def test_soliton_value(self, grid_1d_fine):
        # integral |d/dx sqrt(2) sech|^2 = 4/3, integral |sqrt(2) sech|^4 = 16/3
        st = make_state(grid_1d_fine, np.sqrt(2) / np.cosh(grid_1d_fine.x[0]))
        h = hamiltonian(st, scalar_coupling(1.0, 1.0))
        assert h == pytest.approx(2.0 / 3.0 - 4.0 / 3.0, abs=1e-10)

    def test_quadratic_scaling_without_potential(self, grid_1d):
        rng = np.random.default_rng(0)
        u = random_smooth_field(grid_1d, rng)
        c = scalar_coupling(0.0 + 1e-300, 1.0)  # lam = 0 handled below
        c = Coupling(1.0, np.zeros((2, 2)))
        h1 = hamiltonian(make_state(grid_1d, u), c)
        h3 = hamiltonian(make_state(grid_1d, 3.0 * u), c)
        assert h3 == pytest.approx(9.0 * h1, rel=1e-12)

    def test_additive_across_components_when_uncoupled(self, grid_1d):
        rng = np.random.default_rng(1)
        u = random_smooth_field(grid_1d, rng)
        v = random_smooth_field(grid_1d, rng)
        lam = np.array([[1.0, 0.0], [0.0, -0.7]])
        c = Coupling(1.0, lam)
        h_uv = hamiltonian(make_state(grid_1d, u, v), c)
        h_u = hamiltonian(make_state(grid_1d, u), c)
        h_v = hamiltonian(make_state(grid_1d, np.zeros(grid_1d.shape), v), c)
        assert h_uv == pytest.approx(h_u + h_v, rel=1e-10)


class TestVariance:
    def test_zero_state(self, grid_1d):
        assert variance(make_state(grid_1d, np.zeros(grid_1d.shape))) == 0.0

    def test_gaussian_moment(self, grid_1d):
        oracle, _ = quad(lambda x: x * x * np.exp(-2 * x**2), -np.inf, np.inf)
        st = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        assert variance(st) == pytest.approx(oracle, abs=1e-12)
        assert variance(st) == pytest.approx(0.3133285, abs=1e-6)

    def test_translation_raises_by_shift_squared(self, grid_1d):
        x = grid_1d.x[0]
        x0 = 3.0
        centered = make_state(grid_1d, np.exp(-(x**2)))
        shifted = make_state(grid_1d, np.exp(-((x - x0) ** 2)))
        m = mass(centered)[0]
        assert variance(shifted) - variance(centered) == pytest.approx(m * x0**2, rel=1e-10)

    def test_boundary_mass_warns(self):
        g = Grid(1, 64, 10.0)
        st = make_state(g, np.ones(g.shape))
        with pytest.warns(UserWarning, match="boundary"):
            variance(st)

    def test_additivity(self, grid_1d):
        u = np.exp(-grid_1d.x[0] ** 2)
        v = 0.5 * np.exp(-grid_1d.x[0] ** 2 / 4)
        both = variance(make_state(grid_1d, u, v))
        only_u = variance(make_state(grid_1d, u))
        only_v = variance(make_state(grid_1d, np.zeros_like(u), v))
        assert both == pytest.approx(only_u + only_v, rel=1e-12)


class TestMomentumG:
    def test_real_state_is_zero(self, grid_1d):
        rng = np.random.default_rng(2)
        u = np.abs(random_smooth_field(grid_1d, rng)) + 0j
        assert abs(momentum_G(make_state(grid_1d, u))) < 1e-12

    def test_chirped_gaussian_value(self, grid_1d_fine):
        # u = e^{-x^2} e^{i b x^2}: G = -b * integral 2 x^2 e^{-2x^2} = -b sqrt(pi/2)/2
        b = 0.7
        x = grid_1d_fine.x[0]
        u = np.exp(-(x**2)) * np.exp(1j * b * x**2)
        g = momentum_G(make_state(grid_1d_fine, u))
        assert g == pytest.approx(-b * SQRT_PI_OVER_2 / 2, rel=1e-10)

    @pytest.mark.parametrize("b", [-1.3, -0.2, 0.4, 2.0])
    def test_sign_convention(self, grid_1d, b):
        # sign(G) = -sign(b) under the u x.grad(conj u) ordering
        x = grid_1d.x[0]
        u = np.exp(-(x**2)) * np.exp(1j * b * x**2)
        assert np.sign(momentum_G(make_state(grid_1d, u))) == -np.sign(b)

    def test_additivity(self, grid_1d):
        x = grid_1d.x[0]
        u = np.exp(-(x**2) + 0.3j * x**2)
        v = np.exp(-((x - 1.0) ** 2) - 0.5j * x**2)
        g_uv = momentum_G(make_state(grid_1d, u, v))
        g_u = momentum_G(make_state(grid_1d, u))
        g_v = momentum_G(make_state(grid_1d, np.zeros_like(u), v))
        assert g_uv == pytest.approx(g_u + g_v, rel=1e-12)


class TestEnergyBudget:
    def test_deterministic_run_reduces_to_h_drift(self, grid_1d, no_noise_1d):
        st = make_state(grid_1d, 1.5 * np.exp(-grid_1d.x[0] ** 2))
        c = scalar_coupling(1.0, 1.0)
        res = evolve(st, 0.5, 1e-3, no_noise_1d, c, seed=0, record_every=10)
        b = energy_budget(res.record)
        h_drift = res.record.H - res.record.H[0]
        np.testing.assert_array_equal(b.paper, h_drift)
        np.testing.assert_array_equal(b.gradient, h_drift)
        assert np.all(res.record.stoch_energy == 0)
        assert np.max(np.abs(b.gradient)) < 1e-5

    def test_constant_mode_discriminates_kernels(self, grid_1d):
        # a single spatially constant mode: the path is a pure global phase,
        # H is exactly constant, the gradient kernel vanishes, and the
        # intensity kernel accumulates c^2 M0 t / 2
        c_amp = 0.3
        model = build_noise_model(NoiseSpec(K=1, family="constant", a0=c_amp), grid_1d)
        st = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        cc = Coupling(1.0, np.zeros((2, 2)))
        res = evolve(st, 1.0, 1e-3, model, cc, seed=7, record_every=1)
        b = energy_budget(res.record)
        m0 = res.record.mass_u[0]
        assert abs(b.gradient[-1]) <= 1e-10
        assert abs(abs(b.paper[-1]) - 0.5 * c_amp**2 * m0 * 1.0) <= 1e-10
        # signed value: H(t) = H(0) exactly, so the residual is minus the drift
        assert b.paper[-1] == pytest.approx(-0.5 * c_amp**2 * m0, abs=1e-10)

    def test_both_kernel_series_on_record_times(self, grid_1d, no_noise_1d):
        st = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        res = evolve(st, 0.01, 1e-3, no_noise_1d, scalar_coupling(), seed=0)
        budget = energy_budget(res.record)
        assert budget.paper.shape == budget.gradient.shape == res.record.t.shape

    def test_rejects_untracked_record(self, grid_1d):
        model = build_noise_model(NoiseSpec(K=2, a0=0.1), grid_1d)
        st = make_state(grid_1d, np.exp(-grid_1d.x[0] ** 2))
        res = evolve(st, 0.01, 1e-3, model, scalar_coupling(), seed=0,
                     track_identities=False)
        with pytest.raises(ValueError, match="without increments"):
            energy_budget(res.record)
        with pytest.raises(ValueError, match="without increments"):
            virial_residuals(res.record)

    def test_small_noise_gradient_residual_order(self, grid_1d):
        # pathwise refinement on a fixed Brownian tree
        from conftest import brownian_tree, coarsen

        c = scalar_coupling(1.0, 1.0)
        model = build_noise_model(NoiseSpec(K=2, a0=0.01), grid_1d)
        n_fine = 1000
        fine = brownian_tree(n_fine, 2, 1.0 / n_fine, seed=3)
        dts, residuals = [], []
        for factor in (4, 2, 1):
            n = n_fine // factor
            st = make_state(grid_1d, 2.0 * np.exp(-grid_1d.x[0] ** 2))
            res = evolve(st, 1.0, 1.0 / n, model, c,
                         increments=coarsen(fine, factor), record_every=1)
            dts.append(1.0 / n)
            residuals.append(abs(energy_budget(res.record).gradient[-1]))
        order = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
        assert order >= 0.9


class TestVirialResiduals:
    def test_zero_state_all_zero(self, grid_1d, no_noise_1d):
        st = make_state(grid_1d, np.zeros(grid_1d.shape))
        res = evolve(st, 0.05, 1e-3, no_noise_1d, scalar_coupling(), seed=0)
        rv, rg = virial_residuals(res.record)
        assert np.all(rv == 0)
        assert np.all(rg == 0)

    def test_free_gaussian_spreading_law(self, grid_1d_fine, no_noise_1d_fine):
        # V(t) = V(0) (1 + 16 a^2 t^2) for u0 = exp(-a x^2) under the free flow
        st = make_state(grid_1d_fine, np.exp(-grid_1d_fine.x[0] ** 2))
        c = Coupling(1.0, np.zeros((2, 2)))
        res = evolve(st, 1.0, 1e-3, no_noise_1d_fine, c, seed=0, record_every=10)
        rec = res.record
        rv, rg = virial_residuals(rec)
        assert abs(rv[-1]) <= 1e-6
        closed = rec.V[0] * (1.0 + 16.0 * rec.t**2)
        assert np.max(np.abs(rec.V - closed) / closed) <= 1e-6
        assert abs(rg[-1]) <= 1e-6

    def test_focusing_second_derivative_coefficient(self, grid_1d_fine, no_noise_1d_fine):
        # d2V/dt2 = 16 H + 4 (2 - s N)/(s + 1) integral l11 |u|^(2s+2)
        st = make_state(grid_1d_fine, 1.8 / np.cosh(grid_1d_fine.x[0]))
        c = scalar_coupling(1.0, 1.0)
        res = evolve(st, 1.0, 1e-3, no_noise_1d_fine, c, seed=0, record_every=10)
        rec = res.record
        h = rec.t[1] - rec.t[0]
        d2v = (rec.V[2:] - 2 * rec.V[1:-1] + rec.V[:-2]) / h**2
        rhs = 16 * rec.H[1:-1] + 4 * (2 - 1) / 2 * rec.coupling_quartic[1:-1]
        assert np.max(np.abs(d2v - rhs)) <= 0.01 * np.max(np.abs(rhs))

    def test_stochastic_residual_v_order(self, grid_1d):
        from conftest import brownian_tree, coarsen

        c = scalar_coupling(1.0, 1.0)
        model = build_noise_model(NoiseSpec(K=2, a0=0.01), grid_1d)
        n_fine = 1000
        fine = brownian_tree(n_fine, 2, 1.0 / n_fine, seed=12)
        dts, residuals = [], []
        for factor in (4, 2, 1):
            n = n_fine // factor
            st = make_state(grid_1d, 2.0 * np.exp(-grid_1d.x[0] ** 2))
            res = evolve(st, 1.0, 1.0 / n, model, c,
                         increments=coarsen(fine, factor), record_every=1)
            rv, _ = virial_residuals(res.record)
            dts.append(1.0 / n)
            residuals.append(abs(rv[-1]))
        order = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
        assert order >= 0.9


class TestIdentitiesAcrossRegimes:
    """Identity residuals in corners not covered by the 1D sigma=1 tests."""

    def test_2d_stochastic_orders(self, grid_2d):
        from conftest import brownian_tree, coarsen

        c = Coupling(1.0, np.array([[1.0, 0.3], [0.3, 0.8]]))
        model = build_noise_model(NoiseSpec(K=3, a0=0.01, decay_p=2.0), grid_2d)
        u0 = 1.5 * np.exp(-grid_2d.r_sq) * np.exp(0.2j * grid_2d.r_sq)
        v0 = 0.9 * np.exp(-grid_2d.r_sq / 2)
        n_fine = 500
        fine = brownian_tree(n_fine, 3, 0.5 / n_fine, seed=5)
        dts, e_res, v_res, g_res = [], [], [], []
        for factor in (4, 2, 1):
            n = n_fine // factor
            st = make_state(grid_2d, u0, v0)
            res = evolve(st, 0.5, 0.5 / n, model, c,
                         increments=coarsen(fine, factor), record_every=1)
            budget = energy_budget(res.record)
            rv, rg = virial_residuals(res.record)
            dts.append(0.5 / n)
            e_res.append(abs(budget.gradient[-1]))
            v_res.append(abs(rv[-1]))
            g_res.append(abs(rg[-1]))
        for series in (e_res, v_res, g_res):
            assert np.polyfit(np.log(dts), np.log(series), 1)[0] >= 0.9

    @pytest.mark.parametrize("sigma", [0.75, 1.5])
    def test_momentum_drift_coefficient_at_general_sigma(self, sigma):
        # the (2 - s N)/(s + 1) drift coefficient is exponent-dependent;
        # a wrong coefficient would stall residual_G at O(1), not O(dt^2)
        g = Grid(1, 512, 40.0)
        c = Coupling(sigma, np.array([[1.0, 0.4], [0.4, 0.7]]))
        model = build_noise_model(NoiseSpec(), g)
        dts, g_res = [], []
        for dt in (4e-3, 2e-3, 1e-3):
            st = make_state(g, 1.2 * np.exp(-g.x[0] ** 2),
                            0.8 * np.exp(-g.x[0] ** 2 / 2))
            res = evolve(st, 1.0, dt, model, c, seed=0, record_every=1)
            _, rg = virial_residuals(res.record)
            dts.append(dt)
            g_res.append(abs(rg[-1]))
        order = np.polyfit(np.log(dts), np.log(g_res), 1)[0]
        assert abs(order - 2.0) <= 0.2

    def test_unshared_modes_budget(self):
        # u and v are driven through different mode shapes by the same dB
        from conftest import brownian_tree, coarsen

        g = Grid(1, 512, 40.0)
        model = build_noise_model(NoiseSpec(K=2, a0=0.01, shared_modes=False), g)
        c = Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
        n_fine = 1000
        fine = brownian_tree(n_fine, 2, 1.0 / n_fine, seed=17)
        dts, e_res = [], []
        for factor in (4, 2, 1):
            n = n_fine // factor
            st = make_state(g, 1.5 * np.exp(-g.x[0] ** 2),
                            1.0 * np.exp(-g.x[0] ** 2 / 2))
            res = evolve(st, 1.0, 1.0 / n, model, c,
                         increments=coarsen(fine, factor), record_every=1)
            dts.append(1.0 / n)
            # the largest residual along the path: its final value can sit
            # near a zero crossing at one step size and not at the next
            e_res.append(np.max(np.abs(energy_budget(res.record).gradient)))
        assert np.polyfit(np.log(dts), np.log(e_res), 1)[0] >= 0.9

    def test_chirped_data_nonzero_g0(self):
        # nonzero momentum at t=0 exercises the linear term of both identities
        g = Grid(1, 512, 40.0)
        u0 = np.exp(-g.x[0] ** 2) * np.exp(-0.4j * g.x[0] ** 2)
        st = make_state(g, u0)
        c = scalar_coupling(1.0, 1.0)
        model = build_noise_model(NoiseSpec(), g)
        res = evolve(st, 0.5, 1e-3, model, c, seed=0, record_every=1)
        assert res.record.G[0] == pytest.approx(2 * 0.4 * res.record.V[0], rel=1e-10)
        rv, rg = virial_residuals(res.record)
        assert abs(rv[-1]) < 1e-6
        assert abs(rg[-1]) < 1e-5

    def test_asymmetric_coupling_runs_mass_conserved(self, grid_1d):
        # no energy identity is claimed, but the path must stay well-behaved
        with pytest.warns(UserWarning, match="asymmetric"):
            c = Coupling(1.0, np.array([[1.0, 0.6], [0.2, 1.0]]),
                         allow_asymmetric=True)
        model = build_noise_model(NoiseSpec(K=2, a0=0.1), grid_1d)
        st = make_state(grid_1d, 1.2 * np.exp(-grid_1d.x[0] ** 2),
                        0.9 * np.exp(-grid_1d.x[0] ** 2 / 2))
        res = evolve(st, 0.5, 1e-3, model, c, seed=4, record_every=50)
        rec = res.record
        assert res.outcome == "completed"
        for series in (rec.mass_u, rec.mass_v):
            assert np.max(np.abs(series - series[0])) < 1e-12 * series[0]
        assert np.all(np.diff(rec.t) > 0)


class TestBlowupCriterion:
    def test_polynomial_examples(self):
        assert criterion_lhs(1.0, 0.0, -1.0, 1.0, 0.0, 1.0) == pytest.approx(-7.0)
        assert criterion_lhs(1.0, 0.0, -1.0, 1.0, 0.0, 0.1) == pytest.approx(0.92)

    def test_extrema_examples(self):
        # collapse data: V0 = 4 pi, H0 = -8 pi, no noise; p falls to t_max and vanishes at 1/4
        t_argmin, lhs_min, t_certified = _criterion_extrema(
            4 * np.pi, 0.0, -8 * np.pi, 8 * np.pi, 0.0, 1.0)
        assert (t_argmin, lhs_min) == (1.0, criterion_lhs(4 * np.pi, 0.0, -8 * np.pi,
                                                          8 * np.pi, 0.0, 1.0))
        assert t_certified == pytest.approx(0.25, abs=1e-15)
        # p' = 4 (t - 1)(t - 3): an interior minimum at t = 3, below p(t_max) = p(6) = 72
        assert _criterion_extrema(0.0, 3.0, -1.0, 1.0, 1.0, 6.0)[:2] == (3.0, 0.0)
        # increasing from V0: the infimum is approached as the horizon shrinks to 0
        assert _criterion_extrema(2.0, 1.0, 1.0, 1.0, 1.0, 5.0) == (0.0, 2.0, None)

    @settings(max_examples=150, deadline=None)
    @given(V0=st.floats(0, 50), G0=st.floats(-50, 50), H0=st.floats(-50, 50),
           M0=st.floats(0, 20), min_sup_F=st.floats(0, 5), t_bar_max=st.floats(1e-3, 100))
    def test_extrema_agree_with_a_dense_sweep(self, V0, G0, H0, M0, min_sup_F, t_bar_max):
        coefficients = (V0, G0, H0, M0, min_sup_F)
        t_argmin, lhs_min, t_certified = _criterion_extrema(*coefficients, t_bar_max)
        # the criterion's former report, the polynomial sampled at 4001 horizons,
        # in criterion_lhs's arithmetic taken over the whole array
        tbars = np.linspace(t_bar_max / 4001, t_bar_max, 4001)
        values = (V0 + 4.0 * G0 * tbars + 8.0 * H0 * tbars**2
                  + (4.0 / 3.0) * tbars**3 * min_sup_F * M0)
        tol = 1e-9 * (V0 + 4 * abs(G0) * t_bar_max + 8 * abs(H0) * t_bar_max**2
                      + (4 / 3) * min_sup_F * M0 * t_bar_max**3)
        assert 0 <= t_argmin <= t_bar_max
        assert lhs_min <= values.min() + tol
        assert lhs_min == (criterion_lhs(*coefficients, t_argmin) if t_argmin > 0 else V0)
        # verdict_any is lhs_min < 0, and a certified horizon is reported exactly then
        assert (t_certified is not None) == (lhs_min < 0)
        if t_certified is None:
            assert values.min() >= -tol
        else:
            assert 0 <= t_certified <= t_bar_max * (1 + 1e-9)
            at = criterion_lhs(*coefficients, t_certified) if t_certified > 0 else V0
            assert abs(at) <= tol
            assert np.all(values[tbars < t_certified] >= -tol)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            criterion_lhs(1.0, 0.0, -1.0, 1.0, 0.0, 0.0)

    def test_nonnegative_terms_never_negative(self):
        # H0 >= 0 and G0 >= 0 make every term nonnegative
        rng = np.random.default_rng(0)
        for _ in range(50):
            v0, g0, h0, m0, f = rng.uniform(0, 5, size=5)
            t = rng.uniform(0.01, 10)
            assert criterion_lhs(v0, g0, h0, m0, f, t) >= 0

    def test_monotone_in_h0(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v0, g0, m0, f = rng.uniform(-2, 5, size=4)
            t = rng.uniform(0.01, 5)
            h1, h2 = sorted(rng.uniform(-10, 10, size=2))
            assert criterion_lhs(v0, g0, h1, m0, abs(f), t) <= criterion_lhs(
                v0, g0, h2, m0, abs(f), t
            )

    def test_field_level_evaluation(self, grid_2d):
        # mass-critical focusing data with negative energy
        u0 = 4.0 * np.exp(-grid_2d.r_sq)
        st = make_state(grid_2d, u0)
        c = Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
        model = build_noise_model(NoiseSpec(), grid_2d)
        # focusing and mass-critical: both hypotheses hold, so no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = blowup_criterion(st, c, 1.0, model)
        # V0 = 4 pi, G0 = 0, H0 = -8 pi, M0 = 8 pi, F = 0
        expected = 4 * np.pi + 8 * (-8 * np.pi)
        assert result.lhs == pytest.approx(expected, rel=1e-6)
        assert result.verdict

    def test_defocusing_entry_warns(self, grid_2d):
        # the virial bound needs a nonnegative potential integrand: one
        # negative (defocusing) coefficient voids the certificate
        st = make_state(grid_2d, 4.0 * np.exp(-grid_2d.r_sq))
        model = build_noise_model(NoiseSpec(), grid_2d)
        for lam in ([[1.0, 0.0], [0.0, -1.0]], [[1.0, -0.5], [-0.5, 1.0]]):
            with pytest.warns(UserWarning, match="negative \\(defocusing\\) entry"):
                blowup_criterion(st, Coupling(1.0, np.array(lam)), 1.0, model)

    def test_large_noise_removes_verdict(self, grid_2d):
        u0 = 4.0 * np.exp(-grid_2d.r_sq)
        st = make_state(grid_2d, u0)
        c = Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
        loud = build_noise_model(
            NoiseSpec(K=1, family="constant", a0=np.sqrt(10.0)), grid_2d
        )
        values = [
            blowup_criterion(st, c, tb, loud, check_hypotheses=False).lhs
            for tb in np.linspace(0.01, 1.0, 100)
        ]
        assert min(values) > 0

    def test_chirp_enters_via_identity_orientation(self, grid_1d_fine):
        # a focusing chirp (b < 0) must lower the criterion lhs through the
        # 4 G0 tbar term; printed-ordering momentum_G is positive there
        x = grid_1d_fine.x[0]
        c = Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
        model = build_noise_model(NoiseSpec(), grid_1d_fine)
        plain = blowup_criterion(
            make_state(grid_1d_fine, np.exp(-(x**2))), c, 0.3, model,
            check_hypotheses=False)
        chirped = blowup_criterion(
            make_state(grid_1d_fine, np.exp(-(x**2) - 0.5j * x**2)), c, 0.3, model,
            check_hypotheses=False)
        assert momentum_G(make_state(grid_1d_fine, np.exp(-(x**2) - 0.5j * x**2))) > 0
        assert chirped.G0 < 0
        assert chirped.lhs < plain.lhs

    def test_corollary_bound_makes_expression_negative(self):
        for m_bar, t_bar, f in [(1.0, 1.0, 0.0), (3.0, 0.5, 2.0), (0.2, 4.0, 0.3)]:
            h_bar = corollary_energy_bound(m_bar, t_bar, f)
            value = m_bar + 4 * t_bar * m_bar - 8 * t_bar**2 * (h_bar * 1.0001) \
                + (4.0 / 3.0) * t_bar**3 * f * m_bar
            assert value < 0


class TestItoTerms:
    @staticmethod
    def _per_mode(fields, model, rows, spectra):
        # the Ito integrands mode by mode: one product and one node sum per
        # (mode, axis), each (mode, path) sum over that path's own nodes
        grid = model.grid
        h = grid.spacing**grid.dim
        energy = np.zeros(fields.shape[:2] + (model.K,))
        moment = np.zeros_like(energy)
        for i in rows:
            grad_modes = (model.grad_modes_u, model.grad_modes_v)[i]
            xdot = (model.xdot_grad_u, model.xdot_grad_v)[i]
            density = np.square(np.abs(fields[i]))
            for k in range(model.K):
                moment[i, :, k] = _node_sums(density * xdot[k], grid) * h
            for axis in range(grid.dim):
                derivative = grid._derivative(spectra[i], axis) * np.conj(fields[i])
                for k in range(model.K):
                    energy[i, :, k] += _node_sums(derivative.imag * grad_modes[k, axis], grid)
        return energy * h, moment

    @pytest.mark.parametrize("dead", [0, 1])
    def test_matches_per_mode_sums_bitwise(self, grid_2d, dead):
        # 2D, each component with its own K = 3 modes (C = 2), a batch of 3
        # paths, and one dead row, whose terms are 0
        model = build_noise_model(NoiseSpec(K=3, a0=0.3, shared_modes=False), grid_2d)
        assert model.grad_modes.shape[:2] == (2, 3)
        rng = np.random.default_rng(8)
        fields = np.zeros((2, 3) + grid_2d.shape, dtype=complex)
        for p in range(3):
            fields[1 - dead, p] = random_smooth_field(grid_2d, rng, n_modes=5)
        spectra = grid_2d.fft(fields)
        rows = (1 - dead,)
        energy, moment = _ito_terms(fields, model, rows, spectra)
        expected = self._per_mode(fields, model, rows, spectra)
        assert energy.tobytes() == expected[0].tobytes()
        assert moment.tobytes() == expected[1].tobytes()
        assert not energy[dead].any() and not moment[dead].any()
        assert energy[1 - dead].all() and moment[1 - dead].all()


class TestRecordRow:
    """One recorded row against hamiltonian() and the plain-numpy formulas."""

    @pytest.mark.parametrize("sigma", [1.0, 0.5, 1.7])
    def test_row_matches_functionals(self, grid_2d, sigma):
        # asymmetric coupling: H weighs the mixed integral with l12, the
        # virial quartic with l21
        l11, l12, l21, l22 = 1.3, 0.4, 0.9, 0.7
        with pytest.warns(UserWarning, match="asymmetric"):
            c = Coupling(sigma, np.array([[l11, l12], [l21, l22]]), allow_asymmetric=True)
        rng = np.random.default_rng(31)
        u = random_smooth_field(grid_2d, rng, n_modes=6, scale=1.5)
        v = random_smooth_field(grid_2d, rng, n_modes=6, scale=1.2)
        v[:3] = 0.0  # exact zeros in one modulus
        st = make_state(grid_2d, u, v)
        model = build_noise_model(NoiseSpec(K=3, a0=0.3), grid_2d)
        recorder = TrajectoryRecorder(model, c)
        (grad,), (tail,) = _spectral_diagnostics(st)
        recorder.record(st, grad, tail)
        rec = recorder.finalize()

        au, av = np.abs(u), np.abs(v)
        q = grid_2d.quadrature
        h = grid_2d.spacing**2
        quartic = q(l11 * au ** (2 * sigma + 2) + l22 * av ** (2 * sigma + 2)
                    + 2 * l21 * (au * av) ** (sigma + 1))
        potential_h = q(l11 * au ** (2 * sigma + 2) + l22 * av ** (2 * sigma + 2)
                        + 2 * l12 * (au * av) ** (sigma + 1))
        kin = sum(np.sum(grid_2d.k_sq * np.abs(np.fft.fftn(f)) ** 2) for f in (u, v))
        plain_h = 0.5 * kin * h / grid_2d.node_count - potential_h / (2 + 2 * sigma)
        F_u, F_v = model.F_u, model.F_v
        paper = 0.5 * q(au**2 * F_u + av**2 * F_v + 2 * au * av * np.sqrt(F_u * F_v))
        gradient = 0.5 * q(au**2 * model.grad_sq_sum_u + av**2 * model.grad_sq_sum_v)

        assert rec.H[0] == pytest.approx(hamiltonian(st, c), rel=1e-13)
        assert rec.H[0] == pytest.approx(plain_h, rel=1e-12)
        assert rec.coupling_quartic[0] == pytest.approx(quartic, rel=1e-13)
        assert rec.mass_u[0] == pytest.approx(q(au**2), rel=1e-13)
        assert rec.mass_v[0] == pytest.approx(q(av**2), rel=1e-13)
        assert rec.V[0] == pytest.approx(variance(st, warn_boundary=False), rel=1e-13)
        assert rec.G[0] == momentum_G(st)
        assert rec.paper_kernel[0] == pytest.approx(paper, rel=1e-13)
        assert rec.gradient_kernel[0] == pytest.approx(gradient, rel=1e-13)
        assert (rec.grad_norm_sq[0], rec.spectral_tail_fraction[0]) == (grad, tail)

    def test_2d_record_transforms_only_for_G(self, grid_2d, monkeypatch):
        # G takes dim inverse transforms per component from the diagnostics'
        # spectra; the gradient norm and H come from the diagnostics passed in
        st = make_state(grid_2d, np.exp(-grid_2d.r_sq), 0.5 * np.exp(-grid_2d.r_sq))
        work = Workspace(grid_2d)
        (grad,), (tail,) = _spectral_diagnostics(st, work)
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(Grid, name)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Grid, name, counted)
        recorder = TrajectoryRecorder(build_noise_model(NoiseSpec(), grid_2d),
                                      scalar_coupling())
        recorder.record(st, grad, tail, spectra=work.spectra)
        assert len(calls) == 2 * grid_2d.dim
        assert recorder.finalize().G[0] == momentum_G(st)

    def test_on_step_transforms_only_the_live_rows(self, grid_1d, monkeypatch):
        # on_step's gradients take the spectra evolve materialises before
        # every tracked step, so they only transform back; a dead component
        # adds exactly 0 and is not transformed
        calls, in_step = [], []
        for name in ("fft", "ifft"):
            original = getattr(Grid, name)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Grid, name, counted)
        on_step = TrajectoryRecorder.on_step

        def counted_on_step(self, *args, **kwargs):
            before = len(calls)
            on_step(self, *args, **kwargs)
            in_step.append(len(calls) - before)

        monkeypatch.setattr(TrajectoryRecorder, "on_step", counted_on_step)
        x = grid_1d.x[0]
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_1d)
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        counts = {}
        for label, v in (("live", 0.5 * np.exp(-x**2)), ("dead", None)):
            in_step.clear()
            res = evolve(make_state(grid_1d, np.exp(-x**2), v), 3e-3, 1e-3, model, c,
                         seed=1, record_every=2, track_identities=True)
            assert np.all(res.record.stoch_energy[1:] != 0)
            counts[label] = list(in_step)
        assert counts["live"] == [2, 2, 2]
        assert counts["dead"] == [1, 1, 1]

    def test_dead_component_halves_the_transforms(self, grid_2d, monkeypatch):
        # evolve skips a component that is zero in every path: its L step,
        # its diagnostics transform and its part of G in record()
        calls, in_record = [], []
        for name in ("fft", "ifft"):
            original = getattr(Grid, name)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Grid, name, counted)
        record = TrajectoryRecorder.record

        def counted_record(self, *args, **kwargs):
            before = len(calls)
            record(self, *args, **kwargs)
            in_record.append(len(calls) - before)

        monkeypatch.setattr(TrajectoryRecorder, "record", counted_record)
        g = grid_2d
        model = build_noise_model(NoiseSpec(), g)
        counts = {}
        for label, v in (("live", 0.5 * np.exp(-g.r_sq)), ("dead", None)):
            calls.clear()
            in_record.clear()
            evolve(make_state(g, np.exp(-g.r_sq), v), 1e-3, 1e-3, model, scalar_coupling())
            counts[label] = (len(calls), list(in_record))
        # the initial and the final diagnostics and record (G from the
        # diagnostics' spectra), one L step
        assert counts["live"] == (2 * (2 + 2 * g.dim) + 4, [2 * g.dim] * 2)
        assert counts["dead"][0] * 2 == counts["live"][0]
        assert counts["dead"][1] == [g.dim] * 2

    @staticmethod
    def _plain(st, c, model):
        """The plain-numpy formulas of a row; the mixed integrand is
        |u|^(s+1) |v|^(s+1), as the package takes it, so inf * 0 is NaN."""
        grid, s = st.grid, c.sigma
        au, av = np.abs(st.u), np.abs(st.v)
        q = grid.quadrature
        pu, pv = au ** (s + 1), av ** (s + 1)
        kin = sum(np.sum(grid.k_sq * np.abs(np.fft.fftn(f)) ** 2) for f in (st.u, st.v))
        F_u, F_v = model.F_u, model.F_v
        return {
            "mass_u": q(au**2), "mass_v": q(av**2), "V": q(grid.r_sq * (au**2 + av**2)),
            "H": 0.5 * kin * grid.spacing**grid.dim / grid.node_count
            - q(c.l11 * pu**2 + c.l22 * pv**2 + 2 * c.l12 * pu * pv) / (2 + 2 * s),
            "coupling_quartic": q(c.l11 * pu**2 + c.l22 * pv**2 + 2 * c.l21 * pu * pv),
            "paper_kernel": 0.5 * q(au**2 * F_u + av**2 * F_v + 2 * au * av * np.sqrt(F_u * F_v)),
            "gradient_kernel": 0.5 * q(au**2 * model.grad_sq_sum_u + av**2 * model.grad_sq_sum_v),
        }

    @staticmethod
    def _recorded(st, c, model, rows, spectra_fill=None, increments=None):
        """One path's record after an optional on_step and one record(), with
        the recorder and the diagnostics over ``rows``; ``spectra_fill``
        overwrites the spectra of the rows not in ``rows`` first."""
        work = Workspace(st.grid)
        work.rows = rows
        (grad,), (tail,) = _spectral_diagnostics(st, work)
        for i in {0, 1} - set(rows):
            work.spectra[i] = spectra_fill
        recorder = TrajectoryRecorder(model, c)
        recorder.rows = rows
        if increments is not None:
            batch = SystemState.of_pair(st.fields[:, None], st.t, st.grid)
            recorder.on_step(batch, increments, work.spectra[:, None])
        recorder.record(st, grad, tail, spectra=work.spectra)
        return recorder.finalize()

    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_dead_row_without_noise_records_exact_zeros(self, dim, sigma):
        # a dead v and K = 0: v's mass and both drift kernels are skipped
        # and read exactly 0.0; every other column matches the formulas
        grid = Grid(1, 256, 40.0) if dim == 1 else Grid(2, 64, 16.0)
        c = Coupling(sigma, np.array([[1.3, 0.6], [0.6, 0.7]]))
        u = random_smooth_field(grid, np.random.default_rng(5), n_modes=6, scale=1.5)
        st = make_state(grid, u)
        model = build_noise_model(NoiseSpec(), grid)
        rec = self._recorded(st, c, model, (0,))
        plain = self._plain(st, c, model)
        for name in ("mass_v", "paper_kernel", "gradient_kernel"):
            value = getattr(rec, name)[0]
            assert value == 0.0 and not np.signbit(value), name
            assert plain[name] == 0.0
        assert rec.H[0] == pytest.approx(hamiltonian(st, c), rel=1e-13)
        for name in ("H", "coupling_quartic", "mass_u", "V"):
            assert getattr(rec, name)[0] == pytest.approx(plain[name], rel=1e-12), name
        assert rec.V[0] == pytest.approx(variance(st, warn_boundary=False), rel=1e-13)
        assert rec.G[0] == momentum_G(st)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_dead_row_skip_reads_no_dead_spectra(self, dim):
        # with the dead row's spectra NaN, on_step and record() give the row
        # that taking both rows gives, bit for bit (sigma = 0.5 and a mixed
        # coefficient, so the skipped mixed terms are 0 * finite)
        grid = Grid(1, 256, 40.0) if dim == 1 else Grid(2, 64, 16.0)
        c = Coupling(0.5, np.array([[1.0, 0.5], [0.5, 0.8]]))
        u = random_smooth_field(grid, np.random.default_rng(9), n_modes=6, scale=1.2)
        st = make_state(grid, u)
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid)
        increments = np.array([[0.03, -0.02]])
        skipped = self._recorded(st, c, model, (0,), np.nan, increments)
        both = self._recorded(st, c, model, (0, 1), None, increments)
        for name in _ROW_NAMES:
            a, b = getattr(skipped, name), getattr(both, name)
            assert a.tobytes() == b.tobytes(), name
        assert skipped.stoch_energy[0] != 0.0

    def test_dead_row_overflow_falls_back_to_the_formula(self, grid_1d):
        # |u|^(s+1) overflows while |u|^2 does not, and the mixed coefficient
        # is 0: the skip would give H = -inf, the formula gives NaN (0 * NaN)
        c = Coupling(2.0, np.array([[1.0, 0.0], [0.0, 1.0]]))
        st = make_state(grid_1d, 1e110 * np.exp(-grid_1d.x[0] ** 2))
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), grid_1d)
        with np.errstate(over="ignore", invalid="ignore"):
            rec = self._recorded(st, c, model, (0,))
            plain = self._plain(st, c, model)
        assert np.isfinite(rec.mass_u[0]) and np.isnan(plain["H"])
        for name, value in plain.items():
            recorded = getattr(rec, name)[0]
            if np.isnan(value):
                assert np.isnan(recorded), name
            else:
                assert recorded == pytest.approx(value, rel=1e-12), name

    def test_record_allocates_one_block(self, grid_2d):
        # one record() of a live pair with K = 2, given the diagnostics'
        # spectra as evolve gives them.  The traced peak, in complex fields
        # of one component (64 KiB at 64^2): 7.05 with a temporary per
        # product, 4.03 with one block of six real fields per call (3.00)
        # plus numpy's buffered loops for broadcast and mixed-type operands
        # (up to 8192 elements each)
        g = grid_2d
        st = make_state(g, np.exp(-g.r_sq) * (1 + 0.3j * g.x[0]), 0.5 * np.exp(-g.r_sq / 2))
        c = Coupling(1.0, np.array([[1.0, 0.5], [0.5, 1.0]]))
        work = Workspace(g)
        (grad,), (tail,) = _spectral_diagnostics(st, work)
        recorder = TrajectoryRecorder(build_noise_model(NoiseSpec(K=2, a0=0.1), g), c)
        recorder.record(st, grad, tail, spectra=work.spectra)
        tracemalloc.start()
        try:
            recorder.record(st, grad, tail, spectra=work.spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 16 * g.node_count


class TestStagedRecording:
    """States staged and recorded a block at a time give bitwise the records
    made one state at a time (``_BATCH_NODES`` = 1, so that every block
    holds one state, taken from the materialised batch)."""

    MIXED = np.array([[1.0, 0.5], [0.5, 1.0]])

    @staticmethod
    def _staged_and_alone(monkeypatch, run):
        """``run()`` staged and one state at a time, and each run's record() calls."""
        from scnls import observables

        calls = []
        original = TrajectoryRecorder.record

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TrajectoryRecorder, "record", counted)
        staged = run()
        staged_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(observables, "_BATCH_NODES", 1)
        alone = run()
        return staged, alone, (staged_calls, len(calls))

    @staticmethod
    def _assert_same(staged, alone):
        for got, ref in zip(staged, alone, strict=True):
            assert (got.outcome, got.t_star, got.steps) == (ref.outcome, ref.t_star, ref.steps)
            for name, value in vars(ref.record).items():
                np.testing.assert_array_equal(getattr(got.record, name), value, err_msg=name)
            np.testing.assert_array_equal(got.state.fields, ref.state.fields)

    @staticmethod
    def _batch(states):
        return SystemState(np.stack([s.u for s in states]), np.stack([s.v for s in states]),
                           0.0, states[0].grid)

    def test_soliton_flushes_a_partial_block_at_the_end(self, grid_1d_fine, no_noise_1d_fine,
                                                        monkeypatch):
        # n = 1024: blocks of 8 states; steps 1..20 are staged (two full
        # blocks and 4 left), and the last step's record takes those first
        x = grid_1d_fine.x[0]
        st = make_state(grid_1d_fine, np.sqrt(2.0) / np.cosh(x))

        def run():
            return [evolve(st, 0.021, 1e-3, no_noise_1d_fine, scalar_coupling(),
                           record_every=1)]

        staged, alone, calls = self._staged_and_alone(monkeypatch, run)
        assert len(staged[0].record) == 22
        assert calls == (4, 22)
        self._assert_same(staged, alone)

    def test_paths_leaving_mid_block_flush_it(self, grid_1d_fine, monkeypatch):
        # three paths, blocks of 8 states: the first leaves by blowup at step
        # 5, the second turns non-finite at step 7 (an infinite increment)
        # and leaves as invalid, the third completes
        g = grid_1d_fine
        x = g.x[0]
        model = build_noise_model(NoiseSpec(K=2, a0=0.2), g)
        c = Coupling(1.0, self.MIXED)
        states = [make_state(g, a * np.exp(-x**2), 0.5 * np.exp(-x**2)) for a in (0.8, 1.2, 1.6)]
        increments = np.random.default_rng(3).standard_normal((3, 12, 2)) * np.sqrt(1e-3)
        increments[1, 6] = np.inf

        def run():
            calls = itertools.count(1)
            detectors = [lambda grad, tail: next(calls) >= 5, None, None]
            with np.errstate(over="ignore", invalid="ignore"):
                return evolve(self._batch(states), 0.012, 1e-3, model, c, increments=increments,
                              detector=detectors, record_every=1, track_identities=False)

        staged, alone, calls = self._staged_and_alone(monkeypatch, run)
        assert [r.outcome for r in staged] == ["blowup", "invalid", "completed"]
        assert [len(r.record) for r in staged] == [6, 7, 13]
        assert calls[0] < calls[1] == 26
        self._assert_same(staged, alone)

    def test_tracked_noisy_pair_stages_its_ito_sums(self, grid_1d, monkeypatch):
        # n = 256: blocks of 32 states; the Ito sums are taken at each
        # staged step, before on_step adds the next step's terms
        x = grid_1d.x[0]
        model = build_noise_model(NoiseSpec(K=2, a0=0.5), grid_1d)
        st = make_state(grid_1d, np.exp(-x**2) * (1 + 0.3j * x), 0.7 * np.exp(-x**2 / 2))

        def run():
            return [evolve(st, 0.045, 1e-3, model, Coupling(0.5, self.MIXED), seed=9,
                           record_every=1, track_identities=True)]

        staged, alone, calls = self._staged_and_alone(monkeypatch, run)
        rec = staged[0].record
        assert len(rec) == 46 and calls == (3, 46)
        assert np.all(rec.stoch_energy[1:] != 0) and np.all(rec.stoch_G[1:] != 0)
        assert len(set(rec.stoch_energy[1:])) == 45
        self._assert_same(staged, alone)

    @pytest.mark.parametrize("sigma, amplitude", [(0.5, 1e250), (1.0, 1e100)],
                             ids=["nan", "finite"])
    def test_overflowing_state_in_a_block_takes_the_dead_row(self, grid_1d, monkeypatch,
                                                              sigma, amplitude):
        # one live row and no mixed term, so that the dead row is not
        # revived: in the first path |u|^(2s+2) overflows while u stays
        # finite, so that state's integrals are taken from both rows, the
        # other state's from the live row alone.  At sigma = 0.5 |u|^(s+1)
        # overflows too and 0 * inf reads NaN; at sigma = 1 the masses, V
        # and G stay finite and differ from state to state
        x = grid_1d.x[0]
        model = build_noise_model(NoiseSpec(), grid_1d)
        states = [make_state(grid_1d, a * np.exp(-x**2)) for a in (amplitude, 1.0)]

        def run():
            with np.errstate(over="ignore", invalid="ignore"):
                return evolve(self._batch(states), 0.005, 1e-3, model,
                              Coupling(sigma, np.eye(2)), record_every=1)

        staged, alone, calls = self._staged_and_alone(monkeypatch, run)
        assert [r.outcome for r in staged] == ["completed", "completed"]
        assert np.isfinite(staged[0].state.fields).all()
        overflowed = np.isnan if sigma == 0.5 else np.isposinf
        assert overflowed(staged[0].record.coupling_quartic).all()
        assert np.isfinite(staged[1].record.coupling_quartic).all()
        if sigma == 1.0:
            assert len(set(staged[0].record.V)) == len(staged[0].record)
        assert calls[0] < calls[1]
        self._assert_same(staged, alone)

    def test_state_filling_the_block_stages_nothing(self):
        # a 2D state of at least _BATCH_NODES nodes is recorded from the
        # materialised batch, with no staging array.  Traced from the
        # detector's call at the first step to its call at the second: the
        # first step's record, the second step and its diagnostics: 3.51
        # complex fields of one component (the record's block is 3.00).  A
        # staging pair of the state would add 2.00
        from scnls import observables

        g = Grid(2, 128, 16.0)
        assert g.node_count >= observables._BATCH_NODES
        st = make_state(g, np.exp(-g.r_sq) * (1 + 0.3j * g.x[0]), 0.5 * np.exp(-g.r_sq / 2))
        peaks = []

        def detector(grad, tail):
            if tracemalloc.is_tracing():
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            elif not peaks:
                tracemalloc.start()
            return False

        try:
            res = evolve(st, 3e-3, 1e-3, build_noise_model(NoiseSpec(), g),
                         Coupling(1.0, self.MIXED), detector=detector, record_every=1,
                         track_identities=False)
        finally:
            tracemalloc.stop()
        assert len(res.record) == 4 and len(peaks) == 1
        assert peaks[0] < 4.5 * 16 * g.node_count
