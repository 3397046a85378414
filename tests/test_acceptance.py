"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import numpy as np
import pytest

from scnls import (
    Coupling,
    Grid,
    InitialSpec,
    NoiseSpec,
    RunConfig,
    build_noise_model,
    criterion_sweep,
    energy_budget,
    evolve,
    gn_ratio,
    run_ensemble,
    run_single,
    solve_ground_state,
    virial_residuals,
)

from conftest import brownian_tree, coarsen, make_state, random_smooth_field, scalar_coupling


def report(index, passed, detail):
    print(f"ACCEPTANCE {index}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def grid_fine():
    return Grid(1, 1024, 40.0)


@pytest.fixture(scope="module")
def soliton_run(grid_fine):
    # deterministic scalar focusing soliton: sigma=1, N=1, l11=1,
    # u0 = sqrt(2) sech(x), T=1, dt=1e-3
    st = make_state(grid_fine, np.sqrt(2) / np.cosh(grid_fine.x[0]))
    model = build_noise_model(NoiseSpec(), grid_fine)
    return evolve(st, 1.0, 1e-3, model, scalar_coupling(1.0, 1.0), seed=0,
                  record_every=10)


@pytest.fixture(scope="module")
def order_study(grid_fine):
    # deterministic smooth non-collapsing run at dt in {4e-3, 2e-3, 1e-3}
    model = build_noise_model(NoiseSpec(), grid_fine)
    c = scalar_coupling(1.0, 1.0)
    out = {}
    for dt in (4e-3, 2e-3, 1e-3):
        st = make_state(grid_fine, 1.2 * np.exp(-grid_fine.x[0] ** 2))
        res = evolve(st, 1.0, dt, model, c, seed=0, record_every=1)
        rec = res.record
        rv, _ = virial_residuals(rec)
        out[dt] = (abs(rec.H[-1] - rec.H[0]), abs(rv[-1]))
    return out


@pytest.fixture(scope="module")
def townes():
    return solve_ground_state(1.0, 0.0, Grid(2, 128, 16.0), tol=1e-10)


def test_criterion_1_mass_conservation():
    # stochastic two-component run, 1e4 steps at n=1024
    g = Grid(1, 1024, 40.0)
    st = make_state(g, 1.3 * np.exp(-g.x[0] ** 2),
                    0.7 * np.exp(-g.x[0] ** 2 / 2))
    lam = np.array([[1.0, 0.5], [0.5, 1.0]])
    model = build_noise_model(NoiseSpec(K=2, a0=0.1), g)
    res = evolve(st, 10.0, 1e-3, model, Coupling(1.0, lam), seed=11,
                 record_every=500, track_identities=False)
    rec = res.record
    drift_u = np.max(np.abs(rec.mass_u - rec.mass_u[0])) / rec.mass_u[0]
    drift_v = np.max(np.abs(rec.mass_v - rec.mass_v[0])) / rec.mass_v[0]
    report(1, res.steps == 10**4 and drift_u <= 1e-11 and drift_v <= 1e-11,
           f"mass drift over 1e4 stochastic steps: u {drift_u:.2e}, v {drift_v:.2e} "
           f"(tolerance 1e-11)")


def test_criterion_2_soliton_fidelity(grid_fine, soliton_run):
    rec = soliton_run.record
    profile = np.sqrt(2) / np.cosh(grid_fine.x[0])
    mod_err = np.max(np.abs(np.abs(soliton_run.state.u) - profile))
    h_drift = np.max(np.abs(rec.H - rec.H[0]))
    report(2, mod_err <= 1e-5 and h_drift <= 1e-8,
           f"soliton |u| max error {mod_err:.2e} (tol 1e-5), "
           f"H drift {h_drift:.2e} (tol 1e-8)")


def test_criterion_3_deterministic_order(order_study):
    dts = np.array(sorted(order_study, reverse=True))
    h_errs = [order_study[dt][0] for dt in dts]
    v_errs = [order_study[dt][1] for dt in dts]
    order_h = np.polyfit(np.log(dts), np.log(h_errs), 1)[0]
    order_v = np.polyfit(np.log(dts), np.log(v_errs), 1)[0]
    report(3, abs(order_h - 2.0) <= 0.2 and abs(order_v - 2.0) <= 0.2,
           f"orders under dt={{4e-3,2e-3,1e-3}}: H drift {order_h:.2f}, "
           f"residual_V {order_v:.2f} (target 2.0 +/- 0.2)")


def test_criterion_4_virial_identity_free_gaussian(grid_fine):
    st = make_state(grid_fine, np.exp(-grid_fine.x[0] ** 2))
    model = build_noise_model(NoiseSpec(), grid_fine)
    res = evolve(st, 1.0, 1e-3, model, Coupling(1.0, np.zeros((2, 2))), seed=0,
                 record_every=10)
    rec = res.record
    rv, _ = virial_residuals(rec)
    closed = rec.V[0] * (1.0 + 16.0 * rec.t**2)
    law_err = np.max(np.abs(rec.V - closed) / closed)
    report(4, abs(rv[-1]) <= 1e-6 and law_err <= 1e-6,
           f"free Gaussian: residual_V(T) {abs(rv[-1]):.2e} (tol 1e-6), "
           f"variance law relative error {law_err:.2e} (tol 1e-6)")


def test_criterion_5_g_identity_drift_coefficient(grid_fine):
    # measured d2V/dt2 vs 16H + 4(2 - sigma N)/(sigma + 1) * coupling integral
    st = make_state(grid_fine, 1.8 / np.cosh(grid_fine.x[0]))
    model = build_noise_model(NoiseSpec(), grid_fine)
    res = evolve(st, 1.0, 1e-3, model, scalar_coupling(1.0, 1.0), seed=0,
                 record_every=10)
    rec = res.record
    h = rec.t[1] - rec.t[0]
    d2v = (rec.V[2:] - 2 * rec.V[1:-1] + rec.V[:-2]) / h**2
    rhs = 16 * rec.H[1:-1] + 4 * (2 - 1.0 * 1) / (1.0 + 1) * rec.coupling_quartic[1:-1]
    rel = np.max(np.abs(d2v - rhs)) / np.max(np.abs(rhs))
    report(5, rel <= 0.01,
           f"d2V/dt2 vs 16H + 4(2-sN)/(s+1)*quartic: relative deviation {rel:.2e} "
           f"(tol 1e-2)")


def test_criterion_6_energy_budget_discrimination():
    g = Grid(1, 256, 40.0)
    # (a) closed-form path: one spatially constant mode, no nonlinearity
    c_amp = 0.3
    model = build_noise_model(NoiseSpec(K=1, family="constant", a0=c_amp), g)
    st = make_state(g, np.exp(-g.x[0] ** 2))
    res = evolve(st, 1.0, 1e-3, model, Coupling(1.0, np.zeros((2, 2))), seed=7,
                 record_every=1)
    budget = energy_budget(res.record)
    m0 = res.record.mass_u[0]
    grad_ok = abs(budget.gradient[-1]) <= 1e-10
    paper_expected = 0.5 * c_amp**2 * m0 * 1.0
    paper_ok = abs(abs(budget.paper[-1]) - paper_expected) <= 1e-10

    # (b) small-noise pathwise refinement on a fixed Brownian tree
    model_small = build_noise_model(NoiseSpec(K=2, a0=0.01), g)
    c = scalar_coupling(1.0, 1.0)
    n_fine = 1000
    fine = brownian_tree(n_fine, 2, 1.0 / n_fine, seed=42)
    dts, residuals = [], []
    for factor in (4, 2, 1):
        n = n_fine // factor
        st = make_state(g, 2.0 * np.exp(-g.x[0] ** 2))
        r = evolve(st, 1.0, 1.0 / n, model_small, c,
                   increments=coarsen(fine, factor), record_every=1)
        dts.append(1.0 / n)
        residuals.append(abs(energy_budget(r.record).gradient[-1]))
    order = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
    report(6, grad_ok and paper_ok and order >= 0.9,
           f"constant mode: gradient residual {abs(budget.gradient[-1]):.2e} "
           f"(tol 1e-10), intensity-kernel residual magnitude "
           f"{abs(budget.paper[-1]):.6e} vs c^2 M0 T/2 = {paper_expected:.6e} "
           f"(tol 1e-10); small-noise gradient-residual order {order:.2f} (>= 0.9)")


def test_criterion_7_ground_state_and_sharp_constant(townes):
    g = Grid(1, 1024, 40.0)
    profile = np.sqrt(2) / np.cosh(g.x[0])

    gs0 = solve_ground_state(1.0, 0.0, g, tol=1e-10)
    scalar_err = np.max(np.abs(gs0.P - profile))

    reduction_ok, reduction_errs = True, []
    for beta in (0.5, 1.0, 2.0):
        gs = solve_ground_state(1.0, beta, g, tol=1e-10)
        err = np.max(np.abs(gs.P - (1.0 + beta) ** -0.5 * profile))
        reduction_errs.append(err)
        reduction_ok &= err <= 1e-6

    gs1 = solve_ground_state(1.0, 1.0, g, tol=1e-10)
    k1 = gs1.k_opt_pair
    saturation = gn_ratio(gs1.P.astype(complex), gs1.Q.astype(complex), 1.0, 1.0, g) / k1
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        u = random_smooth_field(g, rng, n_modes=12, scale=rng.uniform(0.1, 3.0))
        v = random_smooth_field(g, rng, n_modes=12, scale=rng.uniform(0.1, 3.0))
        worst = max(worst, gn_ratio(u, v, 1.0, 1.0, g) / k1)

    report(7, scalar_err <= 1e-6 and reduction_ok and worst <= 1.02 and saturation >= 0.98,
           f"scalar profile error {scalar_err:.2e} (tol 1e-6); symmetric-reduction "
           f"errors {['%.1e' % e for e in reduction_errs]} (tol 1e-6); "
           f"max ratio/K over 1000 random fields {worst:.4f} (<= 1.02); "
           f"saturation at the ground state {saturation:.4f} (>= 0.98)")


def _ensemble_config(**overrides):
    kwargs = dict(
        dim=1, n=256, L=40.0,
        coupling=Coupling(0.5, np.array([[1.0, 0.5], [0.5, 1.0]])),
        initial_u=InitialSpec("gaussian", amplitude=1.0, width=1.0),
        initial_v=InitialSpec("gaussian", amplitude=0.8, width=1.5),
        noise=NoiseSpec(K=2, a0=0.05),
        T=5.0, dt=5e-3, record_every=100,
        seed=314, track_identities=False,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def test_criterion_8_global_existence_regimes(tmp_path, townes):
    # (i) mass-subcritical focusing
    sub = run_ensemble(_ensemble_config(), 32, output_dir=tmp_path / "sub",
                       write_paths=False)
    # (ii) defocusing
    defoc = run_ensemble(
        _ensemble_config(
            coupling=Coupling(1.0, np.array([[-1.0, -0.5], [-0.5, -1.0]]))
        ),
        32, output_dir=tmp_path / "defoc", write_paths=False,
    )
    # (iii) mass-critical 2D at half the critical threshold
    threshold = 2.0 / townes.k_opt_single
    target = 0.5 * threshold  # split evenly between the components
    amp = float(np.sqrt(target / 2.0 / np.pi))  # ||gauss(A, w=1)||^2 = A^2 pi w^2
    crit = run_ensemble(
        _ensemble_config(
            dim=2, n=64, L=16.0,
            coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]])),
            initial_u=InitialSpec("gaussian", amplitude=amp, width=1.0),
            initial_v=InitialSpec("gaussian", amplitude=amp, width=1.0),
        ),
        8, output_dir=tmp_path / "crit", write_paths=False,
    )
    report(8, sub.blowup_count == 0 and defoc.blowup_count == 0 and crit.blowup_count == 0,
           f"blow-ups: mass-subcritical {sub.blowup_count}/32, defocusing "
           f"{defoc.blowup_count}/32, mass-critical at half threshold "
           f"{crit.blowup_count}/8 (all must be 0 over T=5)")


def test_criterion_9_blowup_criterion(tmp_path):
    collapse_cfg = RunConfig(
        dim=2, n=128, L=20.0,
        coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]])),
        initial_u=InitialSpec("gaussian", amplitude=4.0, width=np.sqrt(0.5)),
        initial_v=InitialSpec("zero"),
        noise=NoiseSpec(),
        T=1.0, dt=5e-4, record_every=100, seed=21, track_identities=False,
    )
    ens = run_ensemble(collapse_cfg, 4, output_dir=tmp_path / "collapse",
                       write_paths=False)
    sweep = criterion_sweep(collapse_cfg, 1.0, points=100)

    # raise min sup F until the polynomial is positive for every horizon
    import dataclasses

    loud_cfg = dataclasses.replace(
        collapse_cfg, noise=NoiseSpec(K=1, family="constant", a0=np.sqrt(10.0))
    )
    loud = criterion_sweep(loud_cfg, 1.0, points=100)

    report(9, sweep["verdict_any"] and ens.blowup_fraction == 1.0
           and not loud["verdict_any"] and loud["lhs_min"] > 0,
           f"criterion lhs_min {sweep['lhs_min']:.2f} < 0 and deterministic "
           f"blowup_fraction {ens.blowup_fraction}; with min sup F = 10 the "
           f"sweep reports lhs_min {loud['lhs_min']:.2f} > 0 and no verdict")


def test_criterion_10_reproducibility(tmp_path):
    cfg = _ensemble_config(T=0.5, noise=NoiseSpec(K=2, a0=0.1),
                           track_identities=True, record_every=10)
    r1 = run_single(cfg, tmp_path / "a")
    r2 = run_single(cfg, tmp_path / "b")
    single_ok = r1.csv_path.read_bytes() == r2.csv_path.read_bytes()

    e1 = run_ensemble(cfg, 3, workers=1, output_dir=tmp_path / "w1")
    e2 = run_ensemble(cfg, 3, workers=3, output_dir=tmp_path / "w3")
    ens_ok = (tmp_path / "w1" / "ensemble.json").read_bytes() == (
        tmp_path / "w3" / "ensemble.json").read_bytes()
    paths_ok = all(
        (tmp_path / "w1" / f"paths/path_{i:04d}.csv").read_bytes()
        == (tmp_path / "w3" / f"paths/path_{i:04d}.csv").read_bytes()
        for i in range(3)
    )
    report(10, single_ok and ens_ok and paths_ok,
           "byte-identical trajectory CSVs on rerun and across worker counts "
           f"(single {single_ok}, ensemble json {ens_ok}, path CSVs {paths_ok})")
