"""Experiment configuration: a small line-based format and its builder.

Grammar: `[section]` headers, `key = value` lines, full-line `#` comments,
UTF-8. Values keep their literal spelling in the parsed mapping, so
parse -> serialize -> parse is the identity; typing happens in
build_experiment, where every failure is a ConfigError naming the key.

Sections and keys are a closed registry: anything unknown is rejected at
parse time, and keys that a given system kind does not consume are
rejected at build time rather than silently ignored.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError
from .asymptotics import ClassifyBudget
from .prevalence import SamplerSpec, default_amplitude
from .symmetry import (
    GroupAction,
    interval_reflection,
    ring_rotation,
    trivial_action,
)
from . import systems

SECTIONS = {
    "system": (
        "kind",
        "kappa",
        "monotone_expected",
        "gain",
        "r",
        "matrix",
        "nonlinearity",
        "strength",
        "modulation",
        "diffusivity",
        "spatial_profile",
        "name",
    ),
    "grid": ("domain", "n", "radial_dimension"),
    "time": ("tau", "steps_per_period", "theta"),
    "classify": ("max_iterations", "p_max", "check_every", "tol_cyc", "tol_stab"),
    "sampling": (
        "strategy",
        "seed",
        "count",
        "amplitude",
        "modes",
        "base",
        "direction",
        "s_min",
        "s_max",
        "resolution",
    ),
    "symmetry": ("action", "tol_sym"),
}


def parse_config(text):
    """Parse config text to {section: {key: value-string}}."""
    out = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in out:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            out[name] = {}
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in out[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        out[section][key] = value
    return out


def serialize_config(cfg):
    """Render a parsed mapping back to canonical config text."""
    lines = []
    for section in SECTIONS:
        if section not in cfg:
            continue
        table = cfg[section]
        unknown = set(table) - set(SECTIONS[section])
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        lines.append(f"[{section}]")
        for key in SECTIONS[section]:
            if key in table:
                lines.append(f"{key} = {table[key]}")
        lines.append("")
    unknown_sections = set(cfg) - set(SECTIONS)
    if unknown_sections:
        raise ConfigError(f"unknown sections: {sorted(unknown_sections)}")
    return "\n".join(lines)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# typed extraction

def _convert(section, key, value, kind):
    try:
        if kind is float:
            return float(value)
        if kind is int:
            return int(value)
        if kind is bool:
            low = value.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(value)
        return value
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot read {value!r} as {kind.__name__}"
        ) from exc


class _Table:
    """One section's keys with consume-and-complain-about-leftovers access."""

    def __init__(self, section, mapping):
        self.section = section
        self.pending = dict(mapping)

    def take(self, key, kind=str, default=None):
        if key not in self.pending:
            return default
        return _convert(self.section, key, self.pending.pop(key), kind)

    def done(self):
        if self.pending:
            raise ConfigError(
                f"keys not used by this configuration in [{self.section}]: "
                f"{sorted(self.pending)}"
            )


def _vector(section, key, value):
    """Comma list of floats, or the keywords `zero` / `ones`."""
    text = value.strip().lower()
    if text in ("zero", "ones"):
        return text
    try:
        return np.array([float(part) for part in value.split(",")])
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key}: expected comma-separated floats, "
            f"`zero`, or `ones`, got {value!r}"
        ) from exc


def _resolve_vector(spec, n, what):
    if isinstance(spec, str):
        if spec == "zero":
            return np.zeros(n)
        return np.ones(n)
    if spec.shape != (n,):
        raise ConfigError(
            f"{what} has {spec.shape[0]} entries, the system has {n} nodes"
        )
    return spec


@dataclass(eq=False)
class Experiment:
    """Everything a command needs, assembled from one config."""

    system: object
    budget: Optional[ClassifyBudget]
    sampler: Optional[SamplerSpec]
    count: int
    action: Optional[GroupAction]
    tol_sym: float


def _build_system(cfg):
    if "system" not in cfg or "kind" not in cfg["system"]:
        raise ConfigError("config needs [system] with a kind")
    table = _Table("system", cfg["system"])
    kind = table.take("kind")
    name = table.take("name", default="")
    spatial_sections = [s for s in ("grid", "time") if s in cfg]
    if kind != "parabolic" and spatial_sections:
        raise ConfigError(
            f"sections {spatial_sections} apply to parabolic systems only"
        )

    if kind == "cubic":
        system = systems.cubic_map(
            gain=table.take("gain", float, 0.1),
            kappa=table.take("kappa", float, 1.5),
        )
    elif kind == "logistic":
        system = systems.logistic_map(r=table.take("r", float, 3.2))
    elif kind == "negation":
        system = systems.negation_map()
    elif kind == "linear_cooperative":
        matrix = None
        raw = table.take("matrix")
        if raw is not None:
            try:
                matrix = np.array(
                    [
                        [float(entry) for entry in row.split(",")]
                        for row in raw.split(";")
                    ]
                )
            except ValueError as exc:
                raise ConfigError(
                    f"[system] matrix: expected rows of comma floats separated "
                    f"by `;`, got {raw!r}"
                ) from exc
        system = systems.linear_cooperative(
            matrix=matrix, kappa=table.take("kappa", float, 1.5)
        )
    elif kind == "parabolic":
        if "grid" not in cfg or "domain" not in cfg["grid"]:
            raise ConfigError("parabolic systems need [grid] with a domain")
        grid_table = _Table("grid", cfg["grid"])
        time_table = _Table("time", cfg.get("time", {}))
        try:
            system = systems.parabolic_system(
                domain=grid_table.take("domain"),
                n=grid_table.take("n", int, 32),
                radial_dim=grid_table.take("radial_dimension", int, 3),
                strength=table.take("strength", float, 15.0),
                modulation=table.take("modulation", float, 0.3),
                form=table.take("nonlinearity", default="cubic"),
                diffusivity=table.take("diffusivity", float, 1.0),
                profile=table.take("spatial_profile", default="none"),
                kappa=table.take("kappa", float, 1.5),
                tau=time_table.take("tau", float, 1.0),
                steps_per_period=time_table.take("steps_per_period", int, 200),
                theta=time_table.take("theta", float, 0.5),
                name=name,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid parabolic configuration: {exc}") from exc
        grid_table.done()
        time_table.done()
    else:
        raise ConfigError(f"[system] kind: unknown system kind {kind!r}")

    expected = table.take("monotone_expected", bool)
    if expected is not None:
        system = replace(system, monotone_expected=expected)
    if name and kind != "parabolic":
        system = replace(system, name=name)
    table.done()
    return system


def _build_budget(cfg):
    if "classify" not in cfg:
        return None
    table = _Table("classify", cfg["classify"])
    try:
        budget = ClassifyBudget(
            max_iterations=table.take("max_iterations", int, 500),
            p_max=table.take("p_max", int, 64),
            check_every=table.take("check_every", int),
            tol_cyc=table.take("tol_cyc", float),
            tol_stab=table.take("tol_stab", float, 1e-6),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [classify] budget: {exc}") from exc
    table.done()
    return budget


def _build_sampler(cfg, system):
    if "sampling" not in cfg:
        return None, 200
    table = _Table("sampling", cfg["sampling"])
    strategy = table.take("strategy")
    if strategy is None:
        raise ConfigError("[sampling] needs a strategy")
    seed = table.take("seed", int, 0)
    count = table.take("count", int, 200)
    try:
        if strategy in ("box_uniform", "smooth_field"):
            amplitude = table.take("amplitude", float, default_amplitude(system))
            if strategy == "box_uniform":
                sampler = SamplerSpec("box_uniform", seed=seed, amplitude=amplitude)
            else:
                sampler = SamplerSpec(
                    "smooth_field",
                    seed=seed,
                    amplitude=amplitude,
                    modes=table.take("modes", int, 6),
                )
        elif strategy == "line_scan":
            base_raw = table.take("base")
            direction_raw = table.take("direction")
            if base_raw is None or direction_raw is None:
                raise ConfigError("[sampling] line_scan needs base and direction")
            base = _vector("sampling", "base", base_raw)
            direction = _vector("sampling", "direction", direction_raw)
            sampler = SamplerSpec(
                "line_scan",
                seed=seed,
                base=_resolve_vector(base, system.n, "[sampling] base"),
                direction=_resolve_vector(
                    direction, system.n, "[sampling] direction"
                ),
                s_min=table.take("s_min", float, 0.0),
                s_max=table.take("s_max", float, 1.0),
                resolution=table.take("resolution", int, 101),
            )
        else:
            raise ConfigError(f"[sampling] strategy: unknown strategy {strategy!r}")
    except ValueError as exc:
        raise ConfigError(f"invalid [sampling] section: {exc}") from exc
    table.done()
    return sampler, count


def _build_action(cfg, system):
    if "symmetry" not in cfg:
        return None, 1e-5
    table = _Table("symmetry", cfg["symmetry"])
    name = table.take("action")
    tol_sym = table.take("tol_sym", float, 1e-5)
    if name is None:
        raise ConfigError("[symmetry] needs an action")
    builders = {
        "ring_rotation": ring_rotation,
        "interval_reflection": interval_reflection,
        "trivial": trivial_action,
    }
    if name not in builders:
        raise ConfigError(f"[symmetry] action: unknown action {name!r}")
    try:
        action = builders[name](system.grid)
    except ValueError as exc:
        raise ConfigError(f"[symmetry] action {name!r}: {exc}") from exc
    table.done()
    return action, tol_sym


def build_experiment(cfg):
    """Assemble system, budget, sampler, and action from a parsed config."""
    unknown = set(cfg) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    system = _build_system(cfg)
    budget = _build_budget(cfg)
    sampler, count = _build_sampler(cfg, system)
    action, tol_sym = _build_action(cfg, system)
    return Experiment(system, budget, sampler, count, action, tol_sym)
