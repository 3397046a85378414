import numpy as np
import pytest

from scnls import (
    GroundStateError,
    critical_threshold,
    gn_ratio,
    solve_ground_state,
)

from scnls.grid import Grid
from scnls.groundstate import _nonlinear_terms

from conftest import random_smooth_field


@pytest.fixture(scope="module")
def gs_scalar(grid_1d_fine):
    # beta = 0, sigma = 1, N = 1: each component is the scalar ground state
    return solve_ground_state(1.0, 0.0, grid_1d_fine, tol=1e-10)


@pytest.fixture(scope="module")
def gs_beta1(grid_1d_fine):
    return solve_ground_state(1.0, 1.0, grid_1d_fine, tol=1e-10)


@pytest.fixture(scope="module")
def townes(grid_2d):
    # 2D mass-critical profile; beta = 0, single-component reading applies
    return solve_ground_state(1.0, 0.0, grid_2d, tol=1e-10)


class TestSolveGroundState:
    def test_scalar_matches_sech(self, gs_scalar, grid_1d_fine):
        profile = np.sqrt(2) / np.cosh(grid_1d_fine.x[0])
        assert np.max(np.abs(gs_scalar.P - profile)) < 1e-6
        assert gs_scalar.norm_sq_P == pytest.approx(4.0, rel=1e-6)

    def test_residual_below_tolerance(self, gs_scalar):
        assert gs_scalar.residual_inf < 1e-10

    def test_pair_is_symmetric_and_positive(self, gs_scalar):
        np.testing.assert_allclose(gs_scalar.P, gs_scalar.Q, atol=1e-8)
        assert gs_scalar.P.min() > -1e-12

    def test_radially_symmetric(self, gs_scalar):
        # mirror symmetry about the box center (node 0 is its own mirror)
        p = gs_scalar.P
        assert np.max(np.abs(p[1:] - p[1:][::-1])) < 1e-8

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_symmetric_reduction_identity(self, grid_1d_fine, beta):
        # from a symmetric seed the pair solves the scalar equation rescaled:
        # P = (1 + beta)^(-1/(2 sigma)) Phi
        gs = solve_ground_state(1.0, beta, grid_1d_fine, tol=1e-10)
        np.testing.assert_allclose(gs.P, gs.Q, atol=1e-8)
        phi = np.sqrt(2) / np.cosh(grid_1d_fine.x[0])
        expected = (1.0 + beta) ** -0.5 * phi
        assert np.max(np.abs(gs.P - expected)) < 1e-6

    def test_residual_verified_by_reapplying_operator(self, gs_beta1, grid_1d_fine):
        g = grid_1d_fine
        P, Q, beta, s = gs_beta1.P, gs_beta1.Q, gs_beta1.beta, gs_beta1.sigma
        lap = np.fft.ifftn(np.fft.fftn(P) * (-g.k_sq)).real
        residual = -lap + P - (np.abs(P) ** (2 * s) + beta * np.abs(P) ** (s - 1)
                               * np.abs(Q) ** (s + 1)) * P
        assert np.max(np.abs(residual)) < 1e-10

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 3.0])
    def test_closed_form_profile_at_general_exponent(self, sigma):
        # -P'' + P = P^(2s+1) has the explicit solution
        # P = (1+s)^(1/(2s)) sech^(1/s)(s x)
        g = Grid(1, 1024, 60.0)
        gs = solve_ground_state(sigma, 0.0, g, tol=1e-10)
        x = g.x[0]
        analytic = (1.0 + sigma) ** (1.0 / (2.0 * sigma)) * (
            1.0 / np.cosh(sigma * x)
        ) ** (1.0 / sigma)
        assert np.max(np.abs(gs.P - analytic)) < 1e-8

    @pytest.mark.parametrize("sigma,beta,tol", [(-1.0, 0.0, 1e-8), (1.0, -0.5, 1e-8),
                                                (1.0, 0.0, 0.0)])
    def test_rejects_bad_arguments(self, grid_1d, sigma, beta, tol):
        with pytest.raises(ValueError):
            solve_ground_state(sigma, beta, grid_1d, tol=tol)

    def test_evaluates_each_iterate_once(self, grid_1d, monkeypatch):
        # the seed's (1-Lap)P, (1-Lap)Q take 4 transforms; each sweep takes 4
        # for (1-Lap)^-1 N and 4 for the new iterate's (1-Lap)P, (1-Lap)Q
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(Grid, name)

            def counted(self, *args, _original=original, **kwargs):
                calls.append(1)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Grid, name, counted)
        gs = solve_ground_state(1.0, 0.5, grid_1d, tol=1e-10)
        assert len(calls) == 4 + 8 * gs.iterations

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_matches_reference_iteration(self, grid_1d, grid_2d, dim, beta):
        # oracle: the sweep written out plainly, recomputing N and (1-Lap)
        # at both ends of every iteration; the solver must agree bitwise
        g = grid_1d if dim == 1 else grid_2d
        sigma, tol = 1.0, 1e-10
        h = g.spacing**dim
        gamma = (2.0 * sigma + 1.0) / (2.0 * sigma)

        def inv(f):
            return np.fft.ifftn(np.fft.fftn(f) * (1.0 / (1.0 + g.k_sq))).real

        def op(f):
            return np.fft.ifftn(np.fft.fftn(f) * (1.0 + g.k_sq)).real

        P = np.exp(-g.r_sq / 2.0)
        Q = P.copy()
        trace = []
        for iteration in range(1, 5001):
            NP, NQ = _nonlinear_terms(P, Q, sigma, beta)
            lhs = float(((P * op(P)).sum() + (Q * op(Q)).sum()) * h)
            rhs = float(((P * NP).sum() + (Q * NQ).sum()) * h)
            s_factor = (lhs / rhs) ** gamma
            P = s_factor * inv(NP)
            Q = s_factor * inv(NQ)
            NP, NQ = _nonlinear_terms(P, Q, sigma, beta)
            residual = float(max(np.abs(op(P) - NP).max(), np.abs(op(Q) - NQ).max()))
            trace.append(residual)
            if residual < tol:
                break

        gs = solve_ground_state(sigma, beta, g, tol=tol)
        np.testing.assert_array_equal(gs.P, P)
        np.testing.assert_array_equal(gs.Q, Q)
        assert gs.iterations == iteration
        assert gs.residual_inf == residual
        with pytest.raises(GroundStateError) as err:
            solve_ground_state(sigma, beta, g, tol=tol, max_iter=iteration - 1)
        assert err.value.residual_trace == trace[:-1]

    def test_nonconvergence_reports_trace(self, grid_1d):
        with pytest.raises(GroundStateError) as err:
            solve_ground_state(1.0, 0.0, grid_1d, tol=1e-10, max_iter=3)
        assert len(err.value.residual_trace) == 3


class TestKopt:
    def test_printed_formula_value(self, gs_scalar):
        # sigma=1, N=1, ||P||^2 + ||Q||^2 = 8: K = 4 / (sqrt(3) * 8)
        assert gs_scalar.norm_sq_P + gs_scalar.norm_sq_Q == pytest.approx(8.0, rel=1e-6)
        assert gs_scalar.k_opt_pair == pytest.approx(1.0 / (2 * np.sqrt(3)), rel=1e-5)

    def test_single_component_reading(self, gs_scalar):
        assert gs_scalar.k_opt_single == pytest.approx(gs_scalar.k_opt_pair * 2.0, rel=1e-12)

    def test_mass_critical_exponent_degeneracy(self, townes):
        # at sigma = 2/N the (2s+2-Ns) factor has exponent 0: K = 2(s+1)/(Ns * norm^s)
        expected = 2.0 * 2.0 / (2.0 * townes.norm_sq_P)
        assert townes.k_opt_single == pytest.approx(expected, rel=1e-12)

    def test_amplitude_homogeneity(self, gs_scalar):
        # doubling the pair multiplies the squared norms by 4 and K by 4^-sigma
        from scnls.groundstate import _k_opt_value

        base = _k_opt_value(1.0, 1, 8.0)
        assert _k_opt_value(1.0, 1, 32.0) == pytest.approx(base / 4.0, rel=1e-12)

    def test_grid_refinement_invariance(self, gs_scalar):
        g2 = Grid(1, 512, 40.0)
        gs2 = solve_ground_state(1.0, 0.0, g2, tol=1e-10)
        assert gs2.k_opt_pair == pytest.approx(gs_scalar.k_opt_pair, rel=5e-3)


class TestGnRatio:
    def test_ground_state_saturates(self, gs_beta1, grid_1d_fine):
        ratio = gn_ratio(gs_beta1.P.astype(complex), gs_beta1.Q.astype(complex),
                         1.0, 1.0, grid_1d_fine)
        assert ratio >= 0.98 * gs_beta1.k_opt_pair
        assert ratio <= 1.02 * gs_beta1.k_opt_pair

    def test_random_fields_never_exceed(self, gs_beta1, grid_1d):
        bound = 1.02 * gs_beta1.k_opt_pair
        rng = np.random.default_rng(123)
        for _ in range(1000):
            u = random_smooth_field(grid_1d, rng, n_modes=10,
                                    scale=rng.uniform(0.1, 3.0))
            v = random_smooth_field(grid_1d, rng, n_modes=10,
                                    scale=rng.uniform(0.1, 3.0))
            assert gn_ratio(u, v, 1.0, 1.0, grid_1d) <= bound

    def test_wide_gaussian_strictly_below(self, gs_scalar, grid_1d_fine):
        # the quotient is invariant under amplitude and dilation, and a
        # Gaussian is close to (but strictly short of) the extremal profile
        u = 0.05 * np.exp(-grid_1d_fine.x[0] ** 2 / 50.0) + 0j
        v = np.zeros_like(u)
        ratio = gn_ratio(u, v, 0.0, 1.0, grid_1d_fine)
        k_single = gs_scalar.k_opt_single
        assert ratio < (1.0 - 1e-3) * k_single
        assert ratio == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-6)

    def test_scaling_invariance(self, grid_1d):
        rng = np.random.default_rng(4)
        u = random_smooth_field(grid_1d, rng)
        v = random_smooth_field(grid_1d, rng)
        r1 = gn_ratio(u, v, 0.7, 1.0, grid_1d)
        r2 = gn_ratio(5.0 * u, 5.0 * v, 0.7, 1.0, grid_1d)
        assert r1 == pytest.approx(r2, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_plain_gradient_reference(self, dim):
        grid = Grid(dim, 64, 12.0)
        rng = np.random.default_rng(10 + dim)
        u = random_smooth_field(grid, rng, n_modes=6)
        v = random_smooth_field(grid, rng, n_modes=6, scale=0.6)
        sigma, beta = 0.8, 0.7
        q = grid.quadrature

        def grad_sq(f):
            coeffs = np.fft.fftn(f)
            return sum(q(np.abs(np.fft.ifftn(1j * ka * coeffs)) ** 2) for ka in grid.k)

        au, av = np.abs(u), np.abs(v)
        lhs = q(au ** (2 * sigma + 2) + av ** (2 * sigma + 2)
                + 2 * beta * (au * av) ** (sigma + 1))
        m = q(au**2) + q(av**2)
        g = grad_sq(u) + grad_sq(v)
        ns = dim * sigma
        expected = lhs / (m ** (sigma + 1 - ns / 2) * g ** (ns / 2))
        assert gn_ratio(u, v, beta, sigma, grid) == pytest.approx(expected, rel=1e-12)

    def test_rejects_zero_input(self, grid_1d):
        z = np.zeros(grid_1d.shape, dtype=complex)
        with pytest.raises(ValueError):
            gn_ratio(z, z, 0.0, 1.0, grid_1d)


class TestNonlinearTerms:
    def test_matches_masked_power_formula(self):
        # the mixed term drops |P|^(s-1) where |P| <= 1e-300, as the N step does
        rng = np.random.default_rng(8)
        P = rng.random(64) * 2.0
        Q = rng.random(64) * 2.0
        P[:4] = 0.0          # exact zeros
        P[4:6] = 1e-301      # below the cutoff, not zero
        Q[6:8] = 0.0
        Q[8:10] = 1e-301
        for sigma in (1.0, 0.5, 1.7):
            for beta in (0.0, 0.5, 1.0):
                expected = []
                for a, b in ((P, Q), (Q, P)):
                    mixed = np.zeros_like(a)
                    keep = a > 1e-300
                    mixed[keep] = a[keep] ** (sigma - 1.0) * b[keep] ** (sigma + 1.0)
                    expected.append(a ** (2.0 * sigma) * a + beta * mixed * a)
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    got = _nonlinear_terms(P, Q, sigma, beta)
                for g, e in zip(got, expected):
                    if beta == 0.0:
                        np.testing.assert_array_equal(g, e)
                    else:
                        np.testing.assert_allclose(g, e, rtol=1e-14, atol=0.0)
                assert np.all(got[0][:6] == 0.0)


class TestTownesThreshold:
    def test_townes_mass(self, townes):
        # 2D mass-critical single-profile squared norm (literature ~11.7009)
        assert townes.norm_sq_P == pytest.approx(11.7009, rel=1e-3)

    def test_matches_quotient_ascent_oracle(self, townes, grid_2d):
        # independent oracle: maximize the interpolation quotient
        # Q(u) = int |u|^4 / (int |u|^2 * int |grad u|^2) by band-limited
        # gradient ascent from random smooth seeds; sup Q = 2 / (critical
        # squared norm).  The quotient is dilation-invariant, so the ascent is
        # projected onto modes |m| <= n/4 to keep it resolved on the grid.
        g = grid_2d
        m = np.rint(np.fft.fftfreq(g.n) * g.n)
        ma, mb = np.meshgrid(np.abs(m), np.abs(m), indexing="ij")
        keep = ((ma <= g.n // 4) & (mb <= g.n // 4)).astype(float)
        # the quotient degenerates on constants (admissible on a periodic box
        # but not on the line); a fixed smooth window keeps the search on
        # localized fields without touching the extremal profile
        window = np.exp(-(np.sqrt(g.r_sq) / (g.length / 3.0)) ** 8)

        def project(f):
            return np.fft.ifftn(np.fft.fftn(f * window) * keep).real

        def quotient_of(u):
            m2 = g.quadrature(u**2)
            lap = np.fft.ifftn(np.fft.fftn(u) * (-g.k_sq)).real
            return g.quadrature(u**4) / (m2 * -g.quadrature(u * lap))

        best = 0.0
        rng = np.random.default_rng(99)
        for _ in range(3):
            u = project(np.abs(random_smooth_field(g, rng, n_modes=3))
                        + 0.3 * np.exp(-g.r_sq))
            step, q = 0.5, quotient_of(u)
            for _ in range(1500):
                m2 = g.quadrature(u**2)
                p4 = g.quadrature(u**4)
                lap = np.fft.ifftn(np.fft.fftn(u) * (-g.k_sq)).real
                grad_sq = -g.quadrature(u * lap)
                # L2 gradient of log Q(u) with an accept/shrink line search
                direction = project(4 * u**3 / p4 - 2 * u / m2 + 2 * lap / grad_sq)
                scale = np.sqrt(m2 / g.quadrature(direction**2))
                candidate = project(u + step * scale * direction)
                q_new = quotient_of(candidate)
                if q_new > q:
                    u, q = candidate, q_new
                    step = min(step * 1.2, 1.0)
                else:
                    step *= 0.5
                    if step < 1e-9:
                        break
            best = max(best, q)
        assert 2.0 / best == pytest.approx(townes.norm_sq_P, rel=0.01)


class TestCriticalThreshold:
    def test_examples(self):
        assert critical_threshold(1.0, 1.0, 0.5) == pytest.approx(4.0)
        assert critical_threshold(4.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_reciprocal_in_k(self):
        assert critical_threshold(1.0, 1.0, 1.0) == pytest.approx(
            2.0 * critical_threshold(1.0, 1.0, 2.0)
        )

    @pytest.mark.parametrize("l11,l22,k", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)])
    def test_rejects_nonpositive(self, l11, l22, k):
        with pytest.raises(ValueError):
            critical_threshold(l11, l22, k)
