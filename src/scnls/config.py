"""Run configuration: strict key=value sections, initial-data families.

The config file is flat structured text (INI-style sections of key = value
pairs, UTF-8; values are literal, ``%`` included).  Unknown sections or keys
are errors: a misspelled physics parameter must never silently fall back to a
default.

The table ``_SCHEMA`` below is the schema: parsing, the required-key checks
and the manifest echo :meth:`RunConfig.to_dict` all read it, and omitted keys
take the defaults of the dataclass fields.  In brief (* = required):

    [grid]        dim*, n*, L*
    [coupling]    lambda11*, lambda12*, lambda21*, lambda22*, sigma*,
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
from .grid import Grid, load_field_snapshot
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

# The schema.  Each section lists its keys as manifests spell them, with their
# types: first the keys a file must set, then those it may omit, which take
# the defaults of the RunConfig, Coupling and NoiseSpec fields.  A section is
# required when it has a required key.  A key fills the RunConfig field of its
# name; [coupling] and [noise] keys fill RunConfig.coupling and
# RunConfig.noise.  Two exceptions: the lambda keys are the entries of
# Coupling.lam, row by row, and [groundstate] fields carry a "groundstate_"
# prefix.  The [initial_*] keys depend on the family (_FAMILY_KEYS).
_SCHEMA = {
    "grid": ({"dim": int, "n": int, "L": float}, {}),
    "coupling": (
        {"lambda11": float, "lambda12": float, "lambda21": float, "lambda22": float,
         "sigma": float},
        {"allow_asymmetric": bool},
    ),
    "noise": ({}, {"K": int, "family": str, "a0": float, "decay_p": float,
                   "shared_modes": bool, "scale_u": float, "scale_v": float}),
    "initial_u": None,
    "initial_v": None,
    "time": ({"T": float, "dt": float}, {"record_every": int, "dealias": bool}),
    "run": ({"seed": int},
            {"output_dir": str, "track_identities": bool, "snapshot_final": bool}),
    "detector": ({}, {"theta_grad": float, "theta_tail": float}),
    "groundstate": ({}, {"beta": float, "tol": float, "max_iter": int}),
}


def _field(section: str, key: str) -> str:
    """The attribute a schema key fills on its owner."""
    if key.startswith("lambda"):
        return "l" + key[len("lambda"):]
    if section == "groundstate":
        return "groundstate_" + key
    return key


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
            Grid(self.dim, self.n, self.L)
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
        return Grid(self.dim, self.n, self.L)

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
        """Plain-value echo of the configuration for manifests, read off the
        schema: every key, set or defaulted."""
        out = {}
        for section, keys in _SCHEMA.items():
            if keys is None:
                out[section] = _initial_dict(getattr(self, section))
                continue
            owner = getattr(self, section) if section in ("coupling", "noise") else self
            out[section] = {key: getattr(owner, _field(section, key))
                            for key in keys[0] | keys[1]}
        return out


def _initial_dict(spec: InitialSpec) -> dict:
    keys = _FAMILY_KEYS[spec.family]
    return {"family": spec.family,
            **{key: getattr(spec, key) for key in sorted(keys["required"] | keys["optional"])}}


def _read(parser, section, required: dict, optional: dict) -> dict:
    """The keys of ``section`` the file sets, converted to their types."""
    out = {}
    for key, conv in (required | optional).items():
        if not parser.has_option(section, key):
            if key in required:
                raise ConfigError(f"missing required key {key.lower()!r} in section [{section}]")
            continue
        raw = parser.get(section, key)
        try:
            out[key] = parser.getboolean(section, key) if conv is bool else conv(raw)
        except ValueError as exc:
            raise ConfigError(f"invalid value for [{section}] {key.lower()}: {raw!r}") from exc
    return out


def _parse_initial(parser, section) -> InitialSpec:
    family = _read(parser, section, {"family": str}, {})["family"]
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
    params = {key: str if key == "path" else float for key in sorted(present)}
    return InitialSpec(family=family, **_read(parser, section, {}, params))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config from its text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        keys = _SCHEMA[section]
        if keys is None:  # [initial_*] keys are checked against the family
            continue
        extra = set(parser[section].keys()) - {key.lower() for key in keys[0] | keys[1]}
        if extra:
            raise ConfigError(f"unknown keys {sorted(extra)} in section [{section}]")
    for section, keys in _SCHEMA.items():
        if (keys is None or keys[0]) and not parser.has_section(section):
            raise ConfigError(f"missing required config section [{section}]")

    fields = {}
    for section, keys in _SCHEMA.items():
        if keys is None:
            fields[section] = _parse_initial(parser, section)
            continue
        values = _read(parser, section, *keys)
        try:
            if section == "coupling":
                lam = [values.pop(key) for key in keys[0] if key.startswith("lambda")]
                fields[section] = Coupling(lam=np.reshape(lam, (2, 2)), **values)
            elif section == "noise":
                fields[section] = NoiseSpec(**values)
            else:
                fields.update({_field(section, key): value for key, value in values.items()})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return RunConfig(**fields)


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
