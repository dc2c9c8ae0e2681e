"""Experiment configuration: a small line-based format and its builder.

Grammar: `[section]` headers, `key = value` lines, full-line `#` comments,
UTF-8. Values keep their literal spelling in the parsed mapping; typing
happens in build_experiment, where every failure is a ConfigError naming
the key, and a float key refuses nan and inf there.

Sections and keys are a closed registry: anything unknown is rejected at
parse time, and keys that a given system kind does not consume are
rejected at build time rather than silently ignored.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError
from .asymptotics import ClassifyBudget
from .prevalence import DEFAULT_COUNT, STRATEGIES, SamplerSpec, default_amplitude
from .symmetry import ACTIONS, DEFAULT_TOL_SYM, GroupAction
from . import systems

# Every config key and the type its value is read as: float, int, or str
# for a value kept as written. A key left out takes the library default.
SECTIONS = {
    "system": {
        "kind": str,
        "kappa": float,
        "gain": float,
        "r": float,
        "matrix": str,
        "nonlinearity": str,
        "strength": float,
        "modulation": float,
        "diffusivity": float,
        "spatial_profile": str,
        "name": str,
    },
    "grid": {"domain": str, "n": int, "radial_dimension": int},
    "time": {"tau": float, "steps_per_period": int},
    "classify": {"max_iterations": int, "p_max": int, "check_every": int,
                 "tol_cyc": float, "tol_stab": float},
    "sampling": {
        "strategy": str,
        "seed": int,
        "count": int,
        "amplitude": float,
        "modes": int,
        "base": str,
        "direction": str,
        "s_min": float,
        "s_max": float,
        "resolution": int,
    },
    "symmetry": {"action": str, "tol_sym": float},
}

# config keys whose library parameter is spelled differently
_PARAMS = {
    "nonlinearity": "form",
    "spatial_profile": "profile",
    "radial_dimension": "radial_dim",
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


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# typed extraction

class _Table:
    """One section's keys with consume-and-complain-about-leftovers access."""

    def __init__(self, section, mapping):
        self.section = section
        self.pending = dict(mapping)

    def take(self, key):
        """The key's value read as its SECTIONS type, None when absent."""
        if key not in self.pending:
            return None
        value = self.pending.pop(key)
        kind = SECTIONS[self.section][key]
        try:
            out = kind(value)
        except ValueError as exc:
            raise ConfigError(
                f"[{self.section}] {key}: cannot read {value!r} as {kind.__name__}"
            ) from exc
        if kind is float and not np.isfinite(out):
            raise ConfigError(f"[{self.section}] {key}: {value!r} is not finite")
        if key == "kappa" and not np.isfinite(2.0 * out):
            raise ConfigError(f"[system] kappa: {value!r} overflows the box width 2 kappa")
        return out

    def args(self, *keys):
        """Library keyword arguments for those of keys the file sets, in order."""
        return {
            _PARAMS.get(key, key): value
            for key in keys
            if (value := self.take(key)) is not None
        }

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
    spatial_sections = [s for s in ("grid", "time") if s in cfg]
    if kind != "parabolic" and spatial_sections:
        raise ConfigError(
            f"sections {spatial_sections} apply to parabolic systems only"
        )

    if kind == "cubic":
        system = systems.cubic_map(**table.args("gain", "kappa"))
    elif kind == "logistic":
        system = systems.logistic_map(**table.args("r"))
    elif kind == "negation":
        system = systems.negation_map()
    elif kind == "linear_cooperative":
        matrix = {}
        raw = table.take("matrix")
        if raw is not None:
            try:
                matrix["matrix"] = np.array(
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
        system = systems.linear_cooperative(**matrix, **table.args("kappa"))
    elif kind == "parabolic":
        if "grid" not in cfg or "domain" not in cfg["grid"]:
            raise ConfigError("parabolic systems need [grid] with a domain")
        grid_table = _Table("grid", cfg["grid"])
        time_table = _Table("time", cfg.get("time", {}))
        params = {
            **grid_table.args(*SECTIONS["grid"]),
            **table.args(
                "strength", "modulation", "nonlinearity", "diffusivity",
                "spatial_profile", "kappa",
            ),
            **time_table.args(*SECTIONS["time"]),
        }
        try:
            system = systems.parabolic_system(**params)
        except ValueError as exc:
            raise ConfigError(f"invalid parabolic configuration: {exc}") from exc
        grid_table.done()
        time_table.done()
    else:
        raise ConfigError(f"[system] kind: unknown system kind {kind!r}")

    name = table.take("name")
    if name:
        system = replace(system, name=name)
    table.done()
    return system


def _build_budget(cfg):
    if "classify" not in cfg:
        return None
    table = _Table("classify", cfg["classify"])
    params = table.args(*SECTIONS["classify"])
    try:
        budget = ClassifyBudget(**params)
    except ValueError as exc:
        raise ConfigError(f"invalid [classify] budget: {exc}") from exc
    table.done()
    return budget


def _build_sampler(cfg, system):
    if "sampling" not in cfg:
        return None, DEFAULT_COUNT
    table = _Table("sampling", cfg["sampling"])
    strategy = table.take("strategy")
    if strategy is None:
        raise ConfigError("[sampling] needs a strategy")
    fields = table.args("seed")
    count = table.take("count")
    if count is not None and count < 0:
        raise ConfigError("[sampling] count must be nonnegative")
    if strategy not in STRATEGIES:
        raise ConfigError(f"[sampling] strategy: unknown strategy {strategy!r}")
    if strategy == "line_scan":
        raw = table.args("base", "direction")
        if len(raw) < 2:
            raise ConfigError("[sampling] line_scan needs base and direction")
        # both vectors parse before either is resolved against the grid
        parsed = {key: _vector("sampling", key, text) for key, text in raw.items()}
        for key, spec in parsed.items():
            fields[key] = _resolve_vector(spec, system.n, f"[sampling] {key}")
    else:
        fields["amplitude"] = default_amplitude(system)
    # base and direction are taken already: this reads the other fields
    fields.update(table.args(*STRATEGIES[strategy]))
    try:
        sampler = SamplerSpec(strategy, **fields)
    except ValueError as exc:
        raise ConfigError(f"invalid [sampling] section: {exc}") from exc
    table.done()
    return sampler, DEFAULT_COUNT if count is None else count


def _build_action(cfg, system):
    if "symmetry" not in cfg:
        return None, DEFAULT_TOL_SYM
    table = _Table("symmetry", cfg["symmetry"])
    name = table.take("action")
    tol_sym = table.take("tol_sym")
    if name is None:
        raise ConfigError("[symmetry] needs an action")
    if name not in ACTIONS:
        raise ConfigError(f"[symmetry] action: unknown action {name!r}")
    try:
        action = ACTIONS[name](system.grid)
    except ValueError as exc:
        raise ConfigError(f"[symmetry] action {name!r}: {exc}") from exc
    if tol_sym is not None and not tol_sym > 0.0:
        raise ConfigError("[symmetry] tol_sym must be positive")
    table.done()
    return action, DEFAULT_TOL_SYM if tol_sym is None else tol_sym


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
