import warnings

import numpy as np
import pytest
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

from scnls.dynamics import _spectral_diagnostics
from scnls.grid import Grid
from scnls.observables import TrajectoryRecorder

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
            e_res.append(abs(energy_budget(res.record).gradient[-1]))
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

    def test_ensemble_mean_with_stderr(self, grid_1d):
        rng = np.random.default_rng(5)
        states = [
            make_state(grid_1d, (1.0 + 0.1 * rng.standard_normal())
                       * np.exp(-grid_1d.x[0] ** 2))
            for _ in range(8)
        ]
        c = scalar_coupling(1.0, 1.0)
        model = build_noise_model(NoiseSpec(), grid_1d)
        result = blowup_criterion(states, c, 0.5, model, check_hypotheses=False)
        assert result.stderr is not None and result.stderr > 0
        single = blowup_criterion(states[0], c, 0.5, model, check_hypotheses=False)
        assert single.stderr is None

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
        # G takes one forward and dim inverse transforms per component; the
        # gradient norm and H come from the diagnostics passed in
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(Grid, name)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Grid, name, counted)
        st = make_state(grid_2d, np.exp(-grid_2d.r_sq), 0.5 * np.exp(-grid_2d.r_sq))
        recorder = TrajectoryRecorder(build_noise_model(NoiseSpec(), grid_2d),
                                      scalar_coupling())
        recorder.record(st, 1.0, 0.0)
        assert len(calls) == 2 * (1 + grid_2d.dim)
