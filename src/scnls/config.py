"""Run configuration: strict key=value sections, initial-data families.

The config file is flat structured text (INI-style sections of key = value
pairs, UTF-8).  Unknown sections or keys are errors: a misspelled physics
parameter must never silently fall back to a default.

Sections and keys (* = required):

    [grid]        dim*, n*, L*
    [coupling]    sigma*, lambda11*, lambda12*, lambda21*, lambda22*,
                  allow_asymmetric
    [initial_u]   family* (gaussian | sech | file | zero) + family parameters:
                  gaussian: amplitude*, width*, center, chirp
                  sech:     amplitude*, width*
                  file:     path*
    [initial_v]   same as [initial_u]
    [noise]       K, family (fourier | constant), a0, decay_p, shared_modes,
                  scale_u, scale_v
    [time]        T*, dt*, record_every, dealias
    [run]         seed*, output_dir, track_identities, snapshot_final
    [detector]    theta_grad, theta_tail
    [groundstate] beta, tol, max_iter

The gaussian family is amplitude * exp(-|x-c|^2 / (2 width^2))
* exp(1j * chirp * |x-c|^2); sech is amplitude / cosh(|x| / width).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import Coupling, SystemState
from .grid import Grid, load_field_snapshot, make_grid
from .noise import NoiseModel, NoiseSpec, build_noise_model

__all__ = ["ConfigError", "InitialSpec", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_FAMILY_KEYS = {
    "gaussian": {"required": {"amplitude", "width"}, "optional": {"center", "chirp"}},
    "sech": {"required": {"amplitude", "width"}, "optional": set()},
    "file": {"required": {"path"}, "optional": set()},
    "zero": {"required": set(), "optional": set()},
}

_SCHEMA = {
    "grid": {"dim", "n", "l"},
    "coupling": {"sigma", "lambda11", "lambda12", "lambda21", "lambda22", "allow_asymmetric"},
    "initial_u": {"family", "amplitude", "width", "center", "chirp", "path"},
    "initial_v": {"family", "amplitude", "width", "center", "chirp", "path"},
    "noise": {"k", "family", "a0", "decay_p", "shared_modes", "scale_u", "scale_v"},
    "time": {"t", "dt", "record_every", "dealias"},
    "run": {"seed", "output_dir", "track_identities", "snapshot_final"},
    "detector": {"theta_grad", "theta_tail"},
    "groundstate": {"beta", "tol", "max_iter"},
}
_REQUIRED_SECTIONS = ("grid", "coupling", "initial_u", "initial_v", "time", "run")


@dataclass(frozen=True)
class InitialSpec:
    """One component's initial-data family and parameters."""

    family: str
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    chirp: float = 0.0
    path: str = ""

    def __post_init__(self):
        if self.family not in _FAMILY_KEYS:
            raise ConfigError(
                f"unknown initial-data family {self.family!r}; "
                f"choose from {sorted(_FAMILY_KEYS)}"
            )
        if self.family in ("gaussian", "sech") and self.width <= 0:
            raise ConfigError(f"initial width must be positive, got {self.width}")

    def build(self, grid: Grid) -> np.ndarray:
        if self.family == "zero":
            return np.zeros(grid.shape, dtype=complex)
        if self.family == "file":
            try:
                snap_grid, values = load_field_snapshot(self.path)
            except ConfigError:
                raise
            except (OSError, ValueError, KeyError) as exc:
                raise ConfigError(
                    f"cannot load initial-data snapshot {self.path}: {exc}"
                ) from exc
            if snap_grid != grid:
                raise ConfigError(
                    f"snapshot grid {snap_grid} does not match run grid {grid}"
                )
            return values
        r_sq = sum((xa - self.center) ** 2 for xa in grid.x)
        if self.family == "gaussian":
            envelope = self.amplitude * np.exp(-r_sq / (2.0 * self.width**2))
            out = envelope.astype(complex)
            if self.chirp != 0.0:
                out = out * np.exp(1j * self.chirp * r_sq)
            return out
        # sech
        return (self.amplitude / np.cosh(np.sqrt(r_sq) / self.width)).astype(complex)


@dataclass
class RunConfig:
    """Validated run configuration; builders for grid, state and noise model."""

    dim: int
    n: int
    L: float
    coupling: Coupling
    initial_u: InitialSpec
    initial_v: InitialSpec
    noise: NoiseSpec
    T: float
    dt: float
    record_every: int = 1
    dealias: bool = False
    seed: int = 0
    output_dir: str = ""
    track_identities: bool = True
    snapshot_final: bool = False
    theta_grad: float | None = None
    theta_tail: float = 0.1
    groundstate_beta: float | None = None
    groundstate_tol: float = 1e-10
    groundstate_max_iter: int = 5000

    def __post_init__(self):
        try:
            make_grid(self.dim, self.n, self.L)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.T <= 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        if self.theta_grad is not None and self.theta_grad <= 0:
            raise ConfigError("theta_grad must be positive")
        if not (0 < self.theta_tail <= 1):
            raise ConfigError("theta_tail must lie in (0, 1]")
        self.coupling.check_dimension(self.dim)

    def build_grid(self) -> Grid:
        return make_grid(self.dim, self.n, self.L)

    def build_state(self, grid: Grid | None = None) -> SystemState:
        grid = grid or self.build_grid()
        return SystemState(
            self.initial_u.build(grid), self.initial_v.build(grid), 0.0, grid
        )

    def build_noise_model(self, grid: Grid | None = None) -> NoiseModel:
        grid = grid or self.build_grid()
        return build_noise_model(self.noise, grid)

    def ground_state_beta(self) -> float:
        """The [groundstate] beta when set, else the interaction ratio
        l12 / sqrt(l11 l22) when that is positive, else 0."""
        if self.groundstate_beta is not None:
            return self.groundstate_beta
        c = self.coupling
        if c.l11 > 0 and c.l22 > 0 and c.l12 > 0:
            return c.l12 / np.sqrt(c.l11 * c.l22)
        return 0.0

    def to_dict(self) -> dict:
        """Plain-value echo of the configuration for manifests."""
        return {
            "grid": {"dim": self.dim, "n": self.n, "L": self.L},
            "coupling": {
                "sigma": self.coupling.sigma,
                "lambda11": self.coupling.l11,
                "lambda12": self.coupling.l12,
                "lambda21": self.coupling.l21,
                "lambda22": self.coupling.l22,
                "allow_asymmetric": self.coupling.allow_asymmetric,
            },
            "initial_u": _initial_dict(self.initial_u),
            "initial_v": _initial_dict(self.initial_v),
            "noise": {
                "K": self.noise.K,
                "family": self.noise.family,
                "a0": self.noise.a0,
                "decay_p": self.noise.decay_p,
                "shared_modes": self.noise.shared_modes,
                "scale_u": self.noise.scale_u,
                "scale_v": self.noise.scale_v,
            },
            "time": {
                "T": self.T,
                "dt": self.dt,
                "record_every": self.record_every,
                "dealias": self.dealias,
            },
            "run": {
                "seed": self.seed,
                "output_dir": self.output_dir,
                "track_identities": self.track_identities,
                "snapshot_final": self.snapshot_final,
            },
            "detector": {"theta_grad": self.theta_grad, "theta_tail": self.theta_tail},
            "groundstate": {
                "beta": self.groundstate_beta,
                "tol": self.groundstate_tol,
                "max_iter": self.groundstate_max_iter,
            },
        }


def _initial_dict(spec: InitialSpec) -> dict:
    out = {"family": spec.family}
    keys = _FAMILY_KEYS[spec.family]
    for key in sorted(keys["required"] | keys["optional"]):
        out[key] = getattr(spec, key)
    return out


def _get(parser, section, key, conv, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return default
    raw = parser.get(section, key)
    try:
        if conv is bool:
            return parser.getboolean(section, key)
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for [{section}] {key}: {raw!r}") from exc


def _parse_initial(parser, section) -> InitialSpec:
    family = _get(parser, section, "family", str, required=True)
    if family not in _FAMILY_KEYS:
        raise ConfigError(
            f"unknown initial-data family {family!r} in [{section}]; "
            f"choose from {sorted(_FAMILY_KEYS)}"
        )
    keys = _FAMILY_KEYS[family]
    present = set(parser[section].keys()) - {"family"}
    extra = present - keys["required"] - keys["optional"]
    if extra:
        raise ConfigError(
            f"keys {sorted(extra)} are not valid for family {family!r} in [{section}]"
        )
    missing = keys["required"] - present
    if missing:
        raise ConfigError(f"family {family!r} in [{section}] requires keys {sorted(missing)}")
    kwargs = {"family": family}
    for key in present:
        conv = str if key == "path" else float
        kwargs[key] = _get(parser, section, key, conv)
    return InitialSpec(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config from its text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser[section].keys()) - _SCHEMA[section]
        if extra and not section.startswith("initial_"):
            raise ConfigError(f"unknown keys {sorted(extra)} in section [{section}]")
    for section in _REQUIRED_SECTIONS:
        if not parser.has_section(section):
            raise ConfigError(f"missing required config section [{section}]")

    dim = _get(parser, "grid", "dim", int, required=True)
    n = _get(parser, "grid", "n", int, required=True)
    L = _get(parser, "grid", "l", float, required=True)

    lam = np.array(
        [
            [_get(parser, "coupling", "lambda11", float, required=True),
             _get(parser, "coupling", "lambda12", float, required=True)],
            [_get(parser, "coupling", "lambda21", float, required=True),
             _get(parser, "coupling", "lambda22", float, required=True)],
        ]
    )
    try:
        coupling = Coupling(
            sigma=_get(parser, "coupling", "sigma", float, required=True),
            lam=lam,
            allow_asymmetric=_get(parser, "coupling", "allow_asymmetric", bool, default=False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        noise = NoiseSpec(
            K=_get(parser, "noise", "k", int, default=0),
            family=_get(parser, "noise", "family", str, default="fourier"),
            a0=_get(parser, "noise", "a0", float, default=0.0),
            decay_p=_get(parser, "noise", "decay_p", float, default=2.0),
            shared_modes=_get(parser, "noise", "shared_modes", bool, default=True),
            scale_u=_get(parser, "noise", "scale_u", float, default=1.0),
            scale_v=_get(parser, "noise", "scale_v", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        dim=dim,
        n=n,
        L=L,
        coupling=coupling,
        initial_u=_parse_initial(parser, "initial_u"),
        initial_v=_parse_initial(parser, "initial_v"),
        noise=noise,
        T=_get(parser, "time", "t", float, required=True),
        dt=_get(parser, "time", "dt", float, required=True),
        record_every=_get(parser, "time", "record_every", int, default=1),
        dealias=_get(parser, "time", "dealias", bool, default=False),
        seed=_get(parser, "run", "seed", int, required=True),
        output_dir=_get(parser, "run", "output_dir", str, default=""),
        track_identities=_get(parser, "run", "track_identities", bool, default=True),
        snapshot_final=_get(parser, "run", "snapshot_final", bool, default=False),
        theta_grad=_get(parser, "detector", "theta_grad", float),
        theta_tail=_get(parser, "detector", "theta_tail", float, default=0.1),
        groundstate_beta=_get(parser, "groundstate", "beta", float),
        groundstate_tol=_get(parser, "groundstate", "tol", float, default=1e-10),
        groundstate_max_iter=_get(parser, "groundstate", "max_iter", int, default=5000),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
