import configparser
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnls import (
    BlowupDetector,
    ConfigError,
    Coupling,
    Grid,
    HarnessError,
    InitialSpec,
    NoiseSpec,
    RunConfig,
    criterion_sweep,
    parse_config,
    path_seed,
    run_ensemble,
    run_single,
    splitmix64,
    threshold_study,
    verify,
)
from scnls.cli import main as cli_main
from scnls.config import _FAMILY_KEYS, _SCHEMA
from scnls.harness import load_field_snapshot, save_field_snapshot


def base_config(**overrides):
    kwargs = dict(
        dim=1,
        n=256,
        L=40.0,
        coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 0.0]])),
        initial_u=InitialSpec("gaussian", amplitude=1.0, width=1.0),
        initial_v=InitialSpec("zero"),
        noise=NoiseSpec(),
        T=0.1,
        dt=1e-3,
        record_every=10,
        seed=12345,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


CONFIG_TEXT = """\
[grid]
dim = 1
n = 256
L = 40.0

[coupling]
sigma = 1.0
lambda11 = 1.0
lambda12 = 0.0
lambda21 = 0.0
lambda22 = 0.0

[initial_u]
family = gaussian
amplitude = 1.0
width = 1.0

[initial_v]
family = zero

[noise]
K = 2
a0 = 0.05

[time]
T = 0.1
dt = 1e-3
record_every = 10

[run]
seed = 99
"""


def _config_text(sections: dict) -> str:
    """Config text of a manifest-shaped dict; None values are left out."""
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items() if value is not None]
    return "\n".join(lines) + "\n"


def _spelled(strategy):
    return strategy.map(lambda value: (str(value), value))


# (text, value) pairs a config key may hold: by type, or by (section, key)
# where the type admits invalid values
_POSITIVE = _spelled(st.floats(1e-3, 1e3))
_BY_TYPE = {
    int: _spelled(st.integers(0, 2**64 - 1)),
    float: _spelled(st.floats(-1e3, 1e3)),
    bool: st.sampled_from(sorted(configparser.ConfigParser.BOOLEAN_STATES.items())),
    str: _spelled(st.text(alphabet="az09_-./%()", max_size=12)),
}
_VALID = {
    ("grid", "dim"): _spelled(st.sampled_from([1, 2])),
    ("grid", "n"): _spelled(st.sampled_from([8, 16, 64])),
    ("grid", "L"): _POSITIVE,
    ("coupling", "sigma"): _POSITIVE,
    ("noise", "K"): _spelled(st.integers(0, 8)),
    ("noise", "family"): _spelled(st.sampled_from(["fourier", "constant"])),
    ("noise", "a0"): _POSITIVE,
    ("noise", "decay_p"): _POSITIVE,
    ("time", "T"): _POSITIVE,
    ("time", "dt"): _POSITIVE,
    ("time", "record_every"): _spelled(st.integers(1, 100)),
    ("detector", "theta_grad"): _POSITIVE,
    ("detector", "theta_tail"): _spelled(st.floats(1e-3, 1.0)),
    ("initial", "width"): _POSITIVE,
    ("groundstate", "beta"): _spelled(st.floats(0.0, 1e3)),
    ("groundstate", "tol"): _POSITIVE,
    ("groundstate", "max_iter"): _spelled(st.integers(1, 2**64 - 1)),
}


@st.composite
def _config_specs(draw):
    """Section -> key -> (text, value) for every schema section; each optional
    key is set or left out, each initial family is drawn."""

    def keys(section, required, optional):
        out = {}
        for key, conv in (required | optional).items():
            if key in required or draw(st.booleans()):
                out[key] = draw(_VALID.get((section, key), _BY_TYPE[conv]))
        return out

    spec = {}
    for section, schema in _SCHEMA.items():
        if schema is None:
            family = draw(st.sampled_from(sorted(_FAMILY_KEYS)))
            names = {kind: {key: str if key == "path" else float for key in sorted(found)}
                     for kind, found in _FAMILY_KEYS[family].items()}
            spec[section] = {"family": (family, family),
                             **keys("initial", names["required"], names["optional"])}
        else:
            spec[section] = keys(section, *schema)
    if not spec["coupling"].get("allow_asymmetric", ("", False))[1]:
        spec["coupling"]["lambda21"] = spec["coupling"]["lambda12"]
    return spec


class TestSeeding:
    def test_splitmix_is_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)
        assert splitmix64(1) != splitmix64(2)

    def test_path_seeds_distinct(self):
        seeds = {path_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_path_seed_in_64_bits(self):
        for i in range(10):
            assert 0 <= path_seed(2**63, i) < 2**64

    def test_reference_stream_vectors(self):
        # path_seed(0, i) reproduces the standard SplitMix64 output stream
        # seeded with 0, so any language can regenerate per-path seeds
        assert path_seed(0, 0) == 0xE220A8397B1DCDAF
        assert path_seed(0, 1) == 0x6E789E6AA1B965F4
        assert path_seed(0, 2) == 0x06C45D188009454F


class TestDetector:
    def test_thresholds(self):
        assert BlowupDetector(1.0, 0.1)(2.0, 0.0)
        assert BlowupDetector(1.0, 0.1)(0.0, 0.2)
        assert not BlowupDetector(1.0, 0.1)(0.5, 0.05)

    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError):
            BlowupDetector(0.0, 0.1)
        with pytest.raises(ValueError):
            BlowupDetector(-1.0)

    def test_default_threshold_rule(self):
        det = BlowupDetector.for_initial(3.0)
        assert det.theta_grad == pytest.approx(4e6)
        assert det.theta_tail == pytest.approx(0.1)

    def test_vacuous_thresholds_never_trigger(self):
        det = BlowupDetector(np.inf, 1.0)
        assert not det(1e300, 0.999)

    def test_smooth_free_flow_never_triggers(self):
        # low-amplitude free evolution over a long horizon
        cfg = base_config(
            coupling=Coupling(1.0, np.zeros((2, 2))),
            initial_u=InitialSpec("gaussian", amplitude=0.1, width=2.0),
            T=10.0,
            dt=0.05,
            record_every=20,
        )
        from scnls.harness import _run_trajectory

        result = _run_trajectory(cfg, [cfg.seed])[0]
        assert result.outcome == "completed"


class TestConfigParsing:
    def test_full_roundtrip(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.n == 256 and cfg.dim == 1
        assert cfg.noise.K == 2 and cfg.noise.a0 == 0.05
        assert cfg.coupling.l11 == 1.0
        assert cfg.seed == 99

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(CONFIG_TEXT + "\n[extra]\nfoo = 1\n")

    def test_unknown_key_rejected(self):
        bad = CONFIG_TEXT.replace("dt = 1e-3", "dt = 1e-3\ntimestep = 1e-3")
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(bad)

    def test_misspelled_initial_key_rejected(self):
        bad = CONFIG_TEXT.replace("amplitude = 1.0", "amplitudes = 1.0")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_missing_section_rejected(self):
        bad = CONFIG_TEXT.replace("[run]\nseed = 99\n", "")
        with pytest.raises(ConfigError, match="missing required config section"):
            parse_config(bad)

    def test_missing_required_key_rejected(self):
        bad = CONFIG_TEXT.replace("sigma = 1.0\n", "")
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(bad)

    def test_invalid_sigma_rejected(self):
        bad = CONFIG_TEXT.replace("sigma = 1.0", "sigma = -1.0")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_family_rejected(self):
        bad = CONFIG_TEXT.replace("family = gaussian", "family = airy")
        with pytest.raises(ConfigError, match="family"):
            parse_config(bad)

    def test_bad_grid_rejected(self):
        bad = CONFIG_TEXT.replace("n = 256", "n = 100")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ConfigError):
            base_config(T=-1.0)
        with pytest.raises(ConfigError):
            base_config(dt=0.0)
        with pytest.raises(ConfigError):
            base_config(record_every=0)

    @pytest.mark.parametrize("line", ["beta = nan", "beta = inf", "beta = -0.5", "tol = nan",
                                      "tol = inf", "tol = 0", "tol = -1e-8", "max_iter = 0",
                                      "max_iter = -3"])
    def test_bad_groundstate_value_rejected(self, line):
        with pytest.raises(ConfigError, match=r"\[groundstate\] " + line.split()[0]):
            parse_config(CONFIG_TEXT + f"\n[groundstate]\n{line}\n")

    def test_to_dict_roundtrip_with_groundstate(self):
        text = CONFIG_TEXT + "\n[groundstate]\nbeta = 0.5\ntol = 1e-8\nmax_iter = 300\n"
        echo = parse_config(text).to_dict()
        assert echo["groundstate"] == {"beta": 0.5, "tol": 1e-8, "max_iter": 300}
        # the echo is itself a config: written back as sections it parses to
        # the same configuration
        lines = []
        for section, values in echo.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in values.items() if value is not None]
        assert parse_config("\n".join(lines) + "\n").to_dict() == echo

    def test_omitted_optional_sections_take_defaults(self):
        # a config without [noise], [detector] and [groundstate] parses as one
        # that spells out every default of those sections
        bare = CONFIG_TEXT.replace("[noise]\nK = 2\na0 = 0.05\n", "")
        spelled = bare + (
            "\n[noise]\nK = 0\nfamily = fourier\na0 = 0.0\ndecay_p = 2.0\n"
            "shared_modes = true\nscale_u = 1.0\nscale_v = 1.0\n"
            "\n[detector]\ntheta_tail = 0.1\n"
            "\n[groundstate]\ntol = 1e-10\nmax_iter = 5000\n"
        )
        assert "[noise]" not in bare
        assert parse_config(bare).to_dict() == parse_config(spelled).to_dict()

    @pytest.mark.filterwarnings("ignore:asymmetric interaction matrix")
    @settings(max_examples=60, deadline=None)
    @given(spec=_config_specs())
    def test_to_dict_roundtrips_generated_configs(self, spec):
        # a config parses to the values it sets; its echo names every schema
        # key and, written back as config text, parses to the same echo
        cfg = parse_config(_config_text(
            {section: {key: text for key, (text, _) in values.items()}
             for section, values in spec.items()}))
        echo = cfg.to_dict()
        for section, values in spec.items():
            for key, (_, value) in values.items():
                assert echo[section][key] == value
        for section, schema in _SCHEMA.items():
            if schema is not None:
                assert set(echo[section]) == set(schema[0] | schema[1])
        assert parse_config(_config_text(echo)).to_dict() == echo

    def test_percent_is_literal(self):
        for value in ("out/100%", "out/%(seed)s"):
            text = CONFIG_TEXT.replace("seed = 99", f"seed = 99\noutput_dir = {value}")
            assert parse_config(text).output_dir == value

    def test_comments_allowed(self):
        text = CONFIG_TEXT.replace("seed = 99", "seed = 99  # master seed")
        assert parse_config(text).seed == 99

    def test_default_section_rejected_as_section(self):
        # configparser would copy [DEFAULT]'s keys into every section and
        # report them as unknown keys of the first one
        for header in ("[DEFAULT]\nseed = 5\n", "[DEFAULT]\n"):
            with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
                parse_config(header + CONFIG_TEXT)


class TestSnapshots:
    def test_bit_exact_roundtrip(self, tmp_path, grid_1d):
        rng = np.random.default_rng(8)
        values = rng.standard_normal(grid_1d.shape) + 1j * rng.standard_normal(grid_1d.shape)
        path = tmp_path / "field.bin"
        save_field_snapshot(path, grid_1d, values)
        grid2, loaded = load_field_snapshot(path)
        assert grid2 == grid_1d
        np.testing.assert_array_equal(loaded, values)

    def test_2d_roundtrip(self, tmp_path, grid_2d):
        values = np.exp(-grid_2d.r_sq) * (1 + 2j)
        path = tmp_path / "field2d.bin"
        save_field_snapshot(path, grid_2d, values)
        _, loaded = load_field_snapshot(path)
        np.testing.assert_array_equal(loaded, values)

    def test_file_family_initial_data(self, tmp_path, grid_1d):
        values = np.exp(-grid_1d.x[0] ** 2) * np.exp(0.3j * grid_1d.x[0])
        path = tmp_path / "u0.bin"
        save_field_snapshot(path, grid_1d, values)
        spec = InitialSpec("file", path=str(path))
        np.testing.assert_array_equal(spec.build(grid_1d), values)

    def test_file_family_grid_mismatch(self, tmp_path, grid_1d):
        save_field_snapshot(tmp_path / "u0.bin", grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        other = Grid(1, 512, 40.0)
        with pytest.raises(ConfigError, match="does not match"):
            InitialSpec("file", path=str(tmp_path / "u0.bin")).build(other)

    def test_file_family_missing_or_corrupt(self, tmp_path, grid_1d):
        with pytest.raises(ConfigError, match="cannot load"):
            InitialSpec("file", path=str(tmp_path / "nope.bin")).build(grid_1d)
        # truncated payload against a valid sidecar
        save_field_snapshot(tmp_path / "u0.bin", grid_1d, np.zeros(grid_1d.shape, dtype=complex))
        (tmp_path / "u0.bin").write_bytes(b"\x00" * 16)
        with pytest.raises(ConfigError, match="cannot load"):
            InitialSpec("file", path=str(tmp_path / "u0.bin")).build(grid_1d)


class TestRunSingle:
    def test_writes_outputs_and_completes(self, tmp_path):
        cfg = base_config()
        result = run_single(cfg, tmp_path)
        assert result.exit_code == 0
        assert result.csv_path.exists()
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["outcome"]["status"] == "completed"
        assert manifest["config"]["grid"]["n"] == 256
        header = result.csv_path.read_text().splitlines()[0]
        assert header.split(",") == [
            "t", "mass_u", "mass_v", "H", "V", "G", "grad_norm_sq",
            "spectral_tail_fraction", "residual_energy_paper",
            "residual_energy_gradient", "residual_V", "residual_G",
        ]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_config(noise=NoiseSpec(K=2, a0=0.1))
        r1 = run_single(cfg, tmp_path / "a")
        r2 = run_single(cfg, tmp_path / "b")
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()

    def test_free_flow_h_constant(self, tmp_path):
        cfg = base_config(
            coupling=Coupling(1.0, np.zeros((2, 2))), T=1.0, record_every=100
        )
        result = run_single(cfg, tmp_path)
        lines = result.csv_path.read_text().splitlines()[1:]
        h = np.array([float(row.split(",")[3]) for row in lines])
        assert np.max(np.abs(h - h[0])) <= 1e-8

    def test_blowup_exit_code(self, tmp_path):
        cfg = RunConfig(
            dim=2, n=128, L=20.0,
            coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]])),
            initial_u=InitialSpec("gaussian", amplitude=4.0, width=np.sqrt(0.5)),
            initial_v=InitialSpec("zero"),
            noise=NoiseSpec(),
            T=1.0, dt=1e-3, record_every=50, seed=5,
            track_identities=False,
        )
        result = run_single(cfg, tmp_path)
        assert result.exit_code == 2
        assert result.outcome == "blowup"
        assert result.t_star is not None and result.t_star < 1.0
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["outcome"]["t_star"] == result.t_star

    def test_shipped_collapse_2d(self, tmp_path):
        # the shipped blow-up run: the detector stops it at t* = 0.143, 286
        # steps of dt = 5e-4, and the scheme keeps the mass to round-off
        from scnls import load_config

        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "collapse_2d.ini")
        result = run_single(cfg, tmp_path)
        assert (result.outcome, result.exit_code) == ("blowup", 2)
        assert abs(result.t_star - 0.143) <= 2 * cfg.dt
        mass = result.record.mass_u
        assert np.max(np.abs(mass - mass[0])) <= 1e-11 * mass[0]

    def test_non_finite_initial_data_ends_invalid(self, tmp_path, grid_1d):
        poisoned = np.exp(-grid_1d.x[0] ** 2).astype(complex)
        poisoned[7] = np.nan
        save_field_snapshot(tmp_path / "bad.bin", grid_1d, poisoned)
        cfg = base_config(initial_u=InitialSpec("file", path=str(tmp_path / "bad.bin")))
        result = run_single(cfg, tmp_path / "out")
        assert (result.outcome, result.exit_code) == ("invalid", 3)
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_snapshot_final(self, tmp_path):
        cfg = base_config(snapshot_final=True)
        run_single(cfg, tmp_path)
        grid, u_final = load_field_snapshot(tmp_path / "u_final.bin")
        assert grid.n == 256
        assert np.all(np.isfinite(u_final))


class TestEnsemble:
    def test_worker_count_invariance(self, tmp_path):
        cfg = base_config(noise=NoiseSpec(K=2, a0=0.1), T=0.05)
        e1 = run_ensemble(cfg, 4, workers=1, output_dir=tmp_path / "w1")
        e2 = run_ensemble(cfg, 4, workers=4, output_dir=tmp_path / "w4")
        assert (tmp_path / "w1" / "ensemble.json").read_bytes() == (
            tmp_path / "w4" / "ensemble.json"
        ).read_bytes()
        for i in range(4):
            name = f"paths/path_{i:04d}.csv"
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w4" / name
            ).read_bytes()

    def test_uneven_batches_write_identical_outputs(self, tmp_path):
        # 5 paths as one batch, as batches of 2 and 3, and as 5 batches of one
        cfg = base_config(noise=NoiseSpec(K=2, a0=0.1), T=0.05, track_identities=True)
        for workers in (1, 2, 5):
            run_ensemble(cfg, 5, workers=workers, output_dir=tmp_path / f"w{workers}")
        names = ["ensemble.json", "paths_index.csv"] + [
            f"paths/path_{i:04d}.csv" for i in range(5)]
        for name in names:
            reference = (tmp_path / "w1" / name).read_bytes()
            assert (tmp_path / "w2" / name).read_bytes() == reference, name
            assert (tmp_path / "w5" / name).read_bytes() == reference, name

    def test_path_output_runs_once_per_path(self, tmp_path, monkeypatch):
        import scnls.harness

        calls = []
        original = scnls.harness._ensemble_path_star

        def counting(index, *args):
            calls.append(index)
            return original(index, *args)

        monkeypatch.setattr(scnls.harness, "_ensemble_path_star", counting)
        run_ensemble(base_config(T=0.02), 5, workers=1, output_dir=tmp_path)
        assert calls == [0, 1, 2, 3, 4]

    def test_pool_starts_no_idle_workers(self, tmp_path, monkeypatch):
        import scnls.harness

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(scnls.harness, "ProcessPoolExecutor", InlinePool)
        cfg = base_config(T=0.02)
        for n_paths in (1, 3, 8):
            run_ensemble(cfg, n_paths, workers=4, output_dir=tmp_path / str(n_paths),
                         write_paths=False)
        assert sizes == [1, 3, 4]

    def test_batches_contiguous_and_capped(self, monkeypatch):
        from scnls import harness

        assert harness._batches(5, 2, 256) == [range(0, 2), range(2, 5)]
        assert harness._batches(5, 1, 256) == [range(0, 5)]
        assert harness._batches(2, 4, 256) == [range(0, 1), range(1, 2)]
        # a cap of two paths' nodes splits one worker's five paths further
        monkeypatch.setattr(harness, "_BATCH_NODES", 2 * 256)
        batches = harness._batches(5, 1, 256)
        assert [i for b in batches for i in b] == [0, 1, 2, 3, 4]
        assert max(len(b) for b in batches) == 2

    def test_large_grids_run_one_path_per_batch(self):
        from scnls import harness

        # 2D n = 128 and n = 256 gain nothing from batching
        for node_count in (128**2, 256**2):
            assert harness._batches(6, 2, node_count) == [range(i, i + 1) for i in range(6)]
        # the 1D benchmark grid fills one batch per worker
        assert harness._batches(16, 2, 512) == [range(0, 8), range(8, 16)]

    def test_deterministic_blowup_fraction_one(self, tmp_path):
        cfg = RunConfig(
            dim=2, n=128, L=20.0,
            coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]])),
            initial_u=InitialSpec("gaussian", amplitude=4.0, width=np.sqrt(0.5)),
            initial_v=InitialSpec("zero"),
            noise=NoiseSpec(),
            T=1.0, dt=1e-3, record_every=50, seed=5,
            track_identities=False,
        )
        ens = run_ensemble(cfg, 4, output_dir=tmp_path, write_paths=False)
        assert ens.blowup_fraction == 1.0
        assert ens.blowup_count == 4
        assert ens.criterion_lhs < 0 and ens.criterion_verdict
        assert set(ens.blowup_time_quantiles) == {"p10", "p50", "p90"}
        assert ens.wilson_low < 1.0 <= ens.wilson_high + 1e-12

    def test_no_blowups_empty_quantiles(self, tmp_path):
        cfg = base_config(T=0.05)
        ens = run_ensemble(cfg, 3, output_dir=tmp_path, write_paths=False)
        assert ens.blowup_count == 0
        assert ens.blowup_time_quantiles == {}

    def test_rejects_bad_path_count(self, tmp_path):
        with pytest.raises(ValueError):
            run_ensemble(base_config(), 0, output_dir=tmp_path)

    def test_invalid_paths_fail_the_run(self, tmp_path, grid_1d):
        # a non-finite state without a detector trigger counts as invalid,
        # and more than 1% invalid paths aborts the ensemble
        poisoned = np.full(grid_1d.shape, np.nan, dtype=complex)
        save_field_snapshot(tmp_path / "bad.bin", grid_1d, poisoned)
        cfg = base_config(
            initial_u=InitialSpec("file", path=str(tmp_path / "bad.bin")),
            theta_grad=1e300, theta_tail=1.0, T=0.01,
        )
        with pytest.raises(HarnessError, match="failed numerically"):
            run_ensemble(cfg, 2, output_dir=tmp_path / "ens", write_paths=False)

    def test_pool_workers_never_split_the_step(self, tmp_path, monkeypatch):
        # ensemble workers already fill the cores, so evolve in a worker runs
        # each phase as one chunk where the parent would start a helper
        import os

        from scnls import phases

        class NoHelper(phases._Split):
            def __init__(self, grid):
                raise AssertionError("evolve split the step")

        monkeypatch.setattr(phases, "_SPLIT_NODES", 0)
        monkeypatch.setattr(phases, "_Split", NoHelper)
        cfg = base_config(dim=2, n=32, L=16.0, noise=NoiseSpec(K=2, a0=0.1), T=0.01)
        if len(os.sched_getaffinity(0)) >= 2:
            with pytest.raises(AssertionError, match="split"):
                phases._runner(cfg.build_grid())
        ens = run_ensemble(cfg, 2, workers=2, output_dir=tmp_path, write_paths=False)
        assert ens.n_paths == 2

    def test_workers_env_override(self, tmp_path, monkeypatch):
        # the environment sets only the CLI default (TestCli); the library
        # runs with the worker count it is given
        import scnls.harness

        def no_pool(*args, **kwargs):
            raise AssertionError("run_ensemble(workers=1) started a process pool")

        monkeypatch.setattr(scnls.harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("SCNLS_WORKERS", "2")
        cfg = base_config(T=0.02)
        ens = run_ensemble(cfg, 2, workers=1, output_dir=tmp_path, write_paths=False)
        assert ens.n_paths == 2


class TestThresholdStudy:
    def test_refuses_noncritical_sigma(self, tmp_path):
        cfg = base_config(coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]])))
        with pytest.raises(ConfigError, match="mass-critical"):
            threshold_study(cfg, [1.0], 2, output_dir=tmp_path)

    def test_empty_mass_grid(self, tmp_path):
        cfg = base_config(coupling=Coupling(2.0, np.array([[1.0, 0.0], [0.0, 1.0]])))
        rows = threshold_study(cfg, [], 2, output_dir=tmp_path)
        assert rows == []
        text = (tmp_path / "threshold_study.csv").read_text()
        assert text.splitlines() == ["mass_combination,blowup_fraction,criterion_lhs,regime"]

    def test_threshold_separates_regimes(self, tmp_path):
        # 1D mass-critical (sigma = 2): below threshold no collapse, well
        # above it (negative energy after rescaling) every path collapses
        cfg = base_config(
            coupling=Coupling(2.0, np.array([[1.0, 0.0], [0.0, 1.0]])),
            initial_u=InitialSpec("gaussian", amplitude=1.0, width=1.0),
            T=1.0, dt=2e-4, record_every=100, track_identities=False,
        )
        from scnls import critical_threshold, solve_ground_state

        gs = solve_ground_state(2.0, 0.0, cfg.build_grid(), tol=1e-10)
        # quintic 1D critical mass: sqrt(3) pi / 2
        assert gs.norm_sq_P == pytest.approx(np.sqrt(3) * np.pi / 2, rel=1e-4)
        thr = critical_threshold(1.0, 1.0, gs.k_opt_single)
        rows = threshold_study(cfg, [0.5 * thr, 3.0 * thr], 2, output_dir=tmp_path)
        assert rows[0]["regime"] == "global-regime"
        assert rows[0]["blowup_fraction"] == 0.0
        assert rows[1]["regime"] == ""
        assert rows[1]["blowup_fraction"] == 1.0
        assert rows[1]["criterion_lhs"] < 0
        lines = (tmp_path / "threshold_study.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[1].endswith("global-regime")
        # each row's criterion value is the one its ensemble recorded
        for line in lines[1:]:
            target, _, lhs, _ = line.split(",")
            ens = json.loads((tmp_path / f"mass_{float(target):.6g}" / "ensemble.json")
                             .read_text())
            assert float(lhs) == ens["criterion_lhs"]

    def test_refuses_targets_sharing_a_directory(self, tmp_path):
        cfg = base_config(coupling=Coupling(2.0, np.array([[1.0, 0.0], [0.0, 1.0]])))
        for targets in ([5.0000001, 5.0000002], [1.0, 1.0]):
            with pytest.raises(ConfigError, match="first 6 significant digits"):
                threshold_study(cfg, targets, 2, output_dir=tmp_path)
        # refused before any ensemble runs or any file is written
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_requires_full_recording(self, tmp_path):
        with pytest.raises(ConfigError, match="record_every"):
            verify(base_config(record_every=10), tmp_path)

    def test_deterministic_identities_pass(self, tmp_path):
        cfg = base_config(
            initial_u=InitialSpec("sech", amplitude=np.sqrt(2), width=1.0),
            T=0.2, dt=2e-3, record_every=1,
        )
        report = verify(cfg, tmp_path)
        assert report["deterministic"]
        assert report["passes"]["mass"]
        assert report["passes"]["virial_V_order"]
        assert report["passes"]["energy_gradient_order"]
        assert (tmp_path / "verify.json").exists()

    def test_shipped_soliton_passes_every_flag(self, tmp_path):
        # the soliton keeps H to round-off at both step sizes, so no energy
        # order is fitted to it; the virial G residual shows Strang's order
        from scnls import load_config

        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "soliton.ini")
        report = verify(cfg, tmp_path)
        assert report["passes"] and all(report["passes"].values()), report["passes"]
        assert report["orders"]["virial_residual_G"] >= 1.8

    def test_order_is_none_for_drifts_in_round_off(self):
        from scnls.harness import convergence_order

        dts, drifts = [2e-3, 1e-3], [5.6e-14, 3.3e-13]  # grow with the step count
        assert convergence_order(dts, drifts, scale=2 / 3) is None
        assert convergence_order(dts, drifts) == pytest.approx(-2.56, abs=0.01)
        assert convergence_order(dts, [4e-6, 1e-6], scale=2 / 3) == pytest.approx(2.0)

    def test_deterministic_accumulators_zero(self, tmp_path):
        cfg = base_config(T=0.1, record_every=1)
        from scnls.harness import _run_trajectory

        result = _run_trajectory(cfg, [cfg.seed])[0]
        assert np.all(result.record.stoch_energy == 0)
        assert np.all(result.record.stoch_G == 0)

    def test_stochastic_orders(self, tmp_path):
        cfg = base_config(
            initial_u=InitialSpec("gaussian", amplitude=2.0, width=np.sqrt(0.5)),
            noise=NoiseSpec(K=2, a0=0.01),
            T=0.5, dt=2e-3, record_every=1,
        )
        report = verify(cfg, tmp_path)
        assert not report["deterministic"]
        assert report["passes"]["mass"]
        assert report["passes"]["energy_gradient_order"]
        assert report["orders"]["h_drift"] is None

    def test_tracks_identities_whatever_the_config_says(self, tmp_path):
        kwargs = dict(noise=NoiseSpec(K=2, a0=0.05), T=0.1, dt=2e-3, record_every=1)
        tracked = verify(base_config(**kwargs), tmp_path / "on")
        untracked = verify(base_config(track_identities=False, **kwargs), tmp_path / "off")
        assert untracked == tracked
        assert ((tmp_path / "off" / "verify.json").read_bytes()
                == (tmp_path / "on" / "verify.json").read_bytes())


class TestCriterionSweep:
    def test_negative_for_collapse_data(self):
        cfg = RunConfig(
            dim=2, n=64, L=20.0,
            coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]])),
            initial_u=InitialSpec("gaussian", amplitude=4.0, width=np.sqrt(0.5)),
            initial_v=InitialSpec("zero"),
            noise=NoiseSpec(),
            T=1.0, dt=1e-3, seed=0,
        )
        # focusing and mass-critical: both hypotheses hold, so no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = criterion_sweep(cfg, 1.0)
        assert report["verdict_any"]
        assert report["lhs_min"] < 0
        assert report["components"]["H0"] < 0
        assert report["hypotheses"] == {
            "mass_critical_or_above": True,
            "lam_entrywise_nonnegative": True,
        }

    def test_defocusing_entry_warns_and_is_reported(self):
        cfg = RunConfig(
            dim=2, n=64, L=20.0,
            coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, -1.0]])),
            initial_u=InitialSpec("gaussian", amplitude=4.0, width=np.sqrt(0.5)),
            initial_v=InitialSpec("zero"),
            noise=NoiseSpec(),
            T=1.0, dt=1e-3, seed=0,
        )
        with pytest.warns(UserWarning, match="defocusing"):
            report = criterion_sweep(cfg, 1.0)
        assert report["hypotheses"]["lam_entrywise_nonnegative"] is False

    def test_large_noise_reports_positive(self):
        cfg = RunConfig(
            dim=2, n=64, L=20.0,
            coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]])),
            initial_u=InitialSpec("gaussian", amplitude=4.0, width=np.sqrt(0.5)),
            initial_v=InitialSpec("zero"),
            noise=NoiseSpec(K=1, family="constant", a0=np.sqrt(10.0)),
            T=1.0, dt=1e-3, seed=0,
        )
        report = criterion_sweep(cfg, 1.0)
        assert not report["verdict_any"]
        assert report["lhs_min"] > 0
        assert report["t_bar_certified"] is None

    def test_reports_the_earliest_certified_horizon(self):
        cfg = RunConfig(
            dim=2, n=64, L=20.0,
            coupling=Coupling(1.0, np.array([[1.0, 0.0], [0.0, 1.0]])),
            initial_u=InitialSpec("gaussian", amplitude=4.0, width=np.sqrt(0.5)),
            initial_v=InitialSpec("zero"),
            noise=NoiseSpec(),
            T=1.0, dt=1e-3, seed=0,
        )
        # V0 + 8 H0 t^2 with V0 = 4 pi and H0 = -8 pi vanishes at t = 1/4 (to the
        # moments' accuracy at n = 64)
        report = criterion_sweep(cfg, 1.0)
        assert report["t_bar_certified"] == pytest.approx(0.25, abs=1e-9)
        assert report["t_bar_argmin"] == 1.0
        early = criterion_sweep(cfg, 0.2)
        assert not early["verdict_any"] and early["t_bar_certified"] is None

    def test_overflowing_horizon_is_a_config_error(self):
        with pytest.raises(ConfigError, match="not finite at t_bar"):
            criterion_sweep(base_config(), 1e120)


class TestCli:
    def test_simulate_and_exit_codes(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT)
        assert cli_main(["simulate", str(cfg_file), "--output-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text(CONFIG_TEXT.replace("sigma = 1.0", "sigma = -2.0"))
        assert cli_main(["simulate", str(cfg_file)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_missing_file_exit_one(self):
        assert cli_main(["simulate", "/nonexistent/cfg.ini"]) == 1

    def test_verify_cli(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT.replace("record_every = 10", "record_every = 1"))
        assert cli_main(["verify", str(cfg_file), "--output-dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passes"]["mass"]

    def test_groundstate_cli(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT + "\n[groundstate]\nbeta = 0.0\ntol = 1e-8\n")
        assert cli_main(["groundstate", str(cfg_file), "--output-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["l2_P"] == pytest.approx(4.0, rel=1e-4)
        assert (tmp_path / "groundstate_profile.csv").exists()

    def test_groundstate_cli_reports_levels_and_reruns_identically(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT.replace("dim = 1\nn = 256\nL = 40.0",
                                                "dim = 2\nn = 256\nL = 16.0")
                            + "\n[groundstate]\nbeta = 0.5\n")
        outputs = []
        for name in ("a", "b"):
            assert cli_main(["groundstate", str(cfg_file),
                             "--output-dir", str(tmp_path / name)]) == 0
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("groundstate.json", "groundstate_profile.csv")])
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0][0])
        # 256^2 is solved at 64^2 and 128^2 first; iterations is the total
        assert [level["n"] for level in payload["levels"]] == [64, 128, 256]
        assert sum(level["iterations"] for level in payload["levels"]) == payload["iterations"]
        assert payload["residual_inf"] < 1e-10

    def test_criterion_cli(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT)
        # sigma N = 1 lies below the mass-critical exponent: the criterion warns
        with pytest.warns(UserWarning, match="mass-critical"):
            assert cli_main(["criterion", str(cfg_file), "--tbar", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "lhs_min" in report

    @pytest.mark.parametrize("args, edits", [
        pytest.param(["criterion", "--tbar", "nan"], [], id="tbar_nan"),
        pytest.param(["criterion", "--tbar", "1e120"], [], id="tbar_overflow"),
        pytest.param(["simulate"], [("T = 0.1", "T = nan")], id="T_nan"),
        pytest.param(["simulate"], [("dt = 1e-3", "dt = inf")], id="dt_inf"),
        pytest.param(["simulate"], [("[run]", "[detector]\ntheta_grad = nan\n\n[run]")],
                     id="theta_grad_nan"),
        pytest.param(["simulate"], [("width = 1.0", "width = nan")], id="width_nan"),
        pytest.param(["simulate"], [("amplitude = 1.0", "amplitude = inf")], id="amplitude_inf"),
        pytest.param(["simulate"], [("a0 = 0.05", "a0 = nan")], id="a0_nan"),
        pytest.param(["groundstate"], [("[run]", "[groundstate]\nbeta = nan\n\n[run]")],
                     id="groundstate_beta_nan"),
        pytest.param(["groundstate"], [("[run]", "[groundstate]\nbeta = inf\n\n[run]")],
                     id="groundstate_beta_inf"),
        pytest.param(["groundstate"], [("[run]", "[groundstate]\ntol = nan\n\n[run]")],
                     id="groundstate_tol_nan"),
        pytest.param(["groundstate"], [("[run]", "[groundstate]\nmax_iter = -3\n\n[run]")],
                     id="groundstate_max_iter_negative"),
        pytest.param(["ensemble", "--paths", "2", "--threshold-study", "abc"], [],
                     id="targets_abc"),
        pytest.param(["ensemble", "--paths", "2", "--threshold-study", "1,nan"],
                     [("sigma = 1.0", "sigma = 2.0"), ("lambda22 = 0.0", "lambda22 = 1.0")],
                     id="target_nan"),
    ])
    def test_non_finite_inputs_are_config_errors(self, tmp_path, capsys, args, edits):
        text = CONFIG_TEXT
        for old, new in edits:
            text = text.replace(old, new)
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(text)
        argv = args[:1] + [str(cfg_file)] + args[1:] + ["--output-dir", str(tmp_path / "out")]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "NaN" not in captured.out

    def test_ensemble_cli(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT.replace("T = 0.1", "T = 0.05"))
        assert cli_main([
            "ensemble", str(cfg_file), "--paths", "2",
            "--output-dir", str(tmp_path / "ens"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_paths"] == 2

    def test_workers_env_default(self, tmp_path, monkeypatch):
        import scnls.cli

        seen = []

        def fake_run_ensemble(cfg, n_paths, workers=1, output_dir=None):
            seen.append(workers)
            return run_ensemble(cfg, n_paths, workers=1, output_dir=output_dir,
                                write_paths=False)

        monkeypatch.setattr(scnls.cli, "run_ensemble", fake_run_ensemble)
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT.replace("T = 0.1", "T = 0.01"))
        args = ["ensemble", str(cfg_file), "--paths", "1", "--output-dir", str(tmp_path)]
        assert cli_main(args) == 0
        monkeypatch.setenv("SCNLS_WORKERS", "3")
        assert cli_main(args) == 0
        assert cli_main(args + ["--workers", "2"]) == 0
        assert seen == [1, 3, 2]
        monkeypatch.setenv("SCNLS_WORKERS", "many")
        with pytest.raises(SystemExit):
            cli_main(args)

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT)
        monkeypatch.setenv("SCNLS_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert cli_main(["simulate", str(cfg_file)]) == 0
        assert (tmp_path / "env_out" / "trajectory.csv").exists()

    def test_runtime_failure_exit_three(self, tmp_path, grid_1d, capsys):
        poisoned = np.full(grid_1d.shape, np.nan, dtype=complex)
        save_field_snapshot(tmp_path / "bad.bin", grid_1d, poisoned)
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(
            CONFIG_TEXT.replace(
                "[initial_u]\nfamily = gaussian\namplitude = 1.0\nwidth = 1.0",
                f"[initial_u]\nfamily = file\npath = {tmp_path / 'bad.bin'}",
            )
            + "\n[detector]\ntheta_grad = 1e300\ntheta_tail = 1.0\n"
        )
        code = cli_main([
            "ensemble", str(cfg_file), "--paths", "2",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert code == 3
        assert "failed numerically" in capsys.readouterr().err

    def test_criterion_of_non_finite_moments_exits_three(self, tmp_path, grid_1d, capsys):
        # no verdict is certified from moments that are not finite, and no
        # NaN or Infinity (not JSON) reaches the report
        poisoned = np.full(grid_1d.shape, np.nan, dtype=complex)
        save_field_snapshot(tmp_path / "bad.bin", grid_1d, poisoned)
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT.replace(
            "[initial_u]\nfamily = gaussian\namplitude = 1.0\nwidth = 1.0",
            f"[initial_u]\nfamily = file\npath = {tmp_path / 'bad.bin'}",
        ))
        out = tmp_path / "out"
        assert cli_main(["criterion", str(cfg_file), "--tbar", "1.0",
                         "--output-dir", str(out)]) == 3
        captured = capsys.readouterr()
        assert "are not all finite" in captured.err
        assert not (out / "criterion.json").exists()
        assert "NaN" not in captured.out and "Infinity" not in captured.out

    @pytest.mark.parametrize("counts", [["--paths", "0"], ["--paths", "2", "--workers", "0"],
                                        ["--paths", "2", "--workers", "-1"]],
                             ids=["paths_0", "workers_0", "workers_-1"])
    def test_bad_ensemble_counts_are_config_errors(self, tmp_path, capsys, counts):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT)
        argv = ["ensemble", str(cfg_file)] + counts + ["--output-dir", str(tmp_path / "out")]
        assert cli_main(argv) == 1
        assert "config error" in capsys.readouterr().err

    def test_threshold_study_cli_empty_grid(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(
            CONFIG_TEXT.replace("sigma = 1.0", "sigma = 2.0")
            .replace("lambda22 = 0.0", "lambda22 = 1.0")
        )
        code = cli_main([
            "ensemble", str(cfg_file), "--paths", "2",
            "--threshold-study", "", "--output-dir", str(tmp_path / "ts"),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == []
        assert (tmp_path / "ts" / "threshold_study.csv").exists()

    def test_threshold_study_cli_refuses_colliding_targets(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(
            CONFIG_TEXT.replace("sigma = 1.0", "sigma = 2.0")
            .replace("lambda22 = 0.0", "lambda22 = 1.0")
        )
        argv = ["ensemble", str(cfg_file), "--paths", "2", "--threshold-study",
                "5.0000001,5.0000002", "--output-dir", str(tmp_path / "ts")]
        assert cli_main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "ts").exists()

    @pytest.mark.parametrize("counts", [["--paths", "0"], ["--paths", "2", "--workers", "0"]],
                             ids=["paths_0", "workers_0"])
    def test_threshold_study_of_bad_counts_is_a_config_error(self, tmp_path, capsys, counts):
        # an empty mass grid runs no ensemble, and the counts are still checked
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(
            CONFIG_TEXT.replace("sigma = 1.0", "sigma = 2.0")
            .replace("lambda22 = 0.0", "lambda22 = 1.0")
        )
        argv = (["ensemble", str(cfg_file)] + counts
                + ["--threshold-study", "", "--output-dir", str(tmp_path / "ts")])
        assert cli_main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "ts" / "threshold_study.csv").exists()


class TestVerifyHorizon:
    """Every verify level runs to the horizon n dt of the dt level's n whole steps."""

    @staticmethod
    def _soliton_file(tmp_path, T):
        text = (Path(__file__).resolve().parent.parent / "configs" / "soliton.ini").read_text()
        cfg_file = tmp_path / f"soliton_{T}.ini"
        cfg_file.write_text(text.replace("T = 1.0", f"T = {T}"))
        return cfg_file

    def test_t_not_a_multiple_of_dt(self, tmp_path, monkeypatch, capsys):
        import scnls.harness

        ends = []

        def run_level(cfg, increments):
            result = run_level.original(cfg, increments)
            ends.append((result.steps, float(result.record.t[-1])))
            return result

        run_level.original = scnls.harness._run_verify_trajectory
        monkeypatch.setattr(scnls.harness, "_run_verify_trajectory", run_level)
        cfg_file = self._soliton_file(tmp_path, 0.0106)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["verify", str(cfg_file), "--output-dir", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        assert [steps for steps, _ in ends] == [10, 20]
        assert [t for _, t in ends] == [pytest.approx(0.010, abs=1e-15)] * 2
        # raised once, by the dt level
        assert [str(w.message) for w in caught] == [
            "T=0.0106 is not a multiple of dt=0.001; integrating to 0.01"]

    def test_dropped_remainder_leaves_the_report_unchanged(self, tmp_path):
        from scnls import load_config

        whole = verify(load_config(self._soliton_file(tmp_path, 0.01)), tmp_path / "whole")
        with pytest.warns(UserWarning, match="not a multiple of dt"):
            cut = verify(load_config(self._soliton_file(tmp_path, 0.0104)), tmp_path / "cut")
        assert cut == whole
        assert ((tmp_path / "cut" / "verify.json").read_bytes()
                == (tmp_path / "whole" / "verify.json").read_bytes())

    def test_t_below_dt_is_a_config_error(self, tmp_path):
        # no level would take a step, so no identity would be checked
        with pytest.raises(ConfigError, match="T >= dt"):
            verify(base_config(T=4e-4, dt=1e-3, record_every=1), tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestSnapshotBits:
    def test_signed_zeros_nan_and_inf_round_trip(self, tmp_path, grid_2d):
        rng = np.random.default_rng(3)
        parts = rng.standard_normal(grid_2d.shape + (2,))
        payload_nan = np.array([0xFFF8_0000_0000_0001], dtype=np.uint64).view(float)[0]
        special = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.0, np.nan), (2.0, np.inf),
                   (3.0, -np.inf), (np.nan, 4.0), (5.0, payload_nan)]
        parts[0, :len(special)] = special
        values = parts.view(complex)[..., 0]
        path = tmp_path / "field.bin"
        save_field_snapshot(path, grid_2d, values)

        # the file is the explicit little-endian (re, im) interleave, row-major
        interleaved = np.empty(2 * grid_2d.node_count, dtype="<f8")
        interleaved[0::2] = values.real.reshape(-1)
        interleaved[1::2] = values.imag.reshape(-1)
        assert path.read_bytes() == interleaved.tobytes()

        _, loaded = load_field_snapshot(path)
        assert loaded.shape == grid_2d.shape and loaded.dtype == complex
        assert loaded.flags.writeable
        np.testing.assert_array_equal(loaded.view(np.uint64), values.view(np.uint64))


class TestCliUsageErrors:
    """A usage error exits 1, never 2, which means a detected blow-up."""

    @pytest.mark.parametrize("args, env", [
        pytest.param(["simulate"], None, id="no_config"),
        pytest.param(["criterion", "{cfg}", "--tbar", "abc"], None, id="tbar_abc"),
        pytest.param(["ensemble", "{cfg}", "--paths", "2"], "many", id="workers_env_many"),
        pytest.param(["verify", "{cfg}", "--no-such-flag"], None, id="unknown_flag"),
    ])
    def test_usage_error_exits_one(self, tmp_path, monkeypatch, capsys, args, env):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(CONFIG_TEXT)
        if env is not None:
            monkeypatch.setenv("SCNLS_WORKERS", env)
        with pytest.raises(SystemExit) as exc:
            cli_main([arg.format(cfg=cfg_file) for arg in args])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "usage: scnls simulate" in capsys.readouterr().out
