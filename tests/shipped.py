"""The shipped systems, built from ``configs/*.cfg`` once per session.

The configs are the one definition of the systems the experiments run on:
the tests load them here rather than restating their parameters.
"""

from functools import cache
from pathlib import Path

from monotone_lab import Parabolic, build_experiment, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the config files that define the shipped systems, scalar maps first; the
# other configs sample one of these systems or exist to fail a check
FILES = (
    "cubic", "logistic", "linear_cooperative", "dirichlet_cubic_5",
    "dirichlet_cubic_15", "neumann_cubic_5", "ring_cubic_5", "radial_cubic_15",
)


@cache
def _systems():
    built = (build_experiment(load_config(CONFIGS / f"{stem}.cfg")).system for stem in FILES)
    return {system.name: system for system in built}


def shipped():
    """The shipped systems by name; each is built once and shared, so a
    parabolic system's propagator stays warm across tests."""
    return dict(_systems())


def shipped_parabolic():
    """The shipped parabolic systems by name."""
    return {name: s for name, s in _systems().items() if isinstance(s.kind, Parabolic)}
