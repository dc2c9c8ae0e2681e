"""Config grammar, experiment building, and the command-line front end."""

import dataclasses
import inspect
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from monotone_lab import (
    ClassificationReport,
    ClassifyBudget,
    ConfigError,
    SamplerSpec,
    ValidationReport,
    box_uniform,
    build_experiment,
    check_monotone,
    check_strong_monotone,
    check_strong_positivity,
    classify_orbit,
    classify_symmetric_limit,
    cubic_map,
    estimate_prevalence,
    line_probe,
    linear_cooperative,
    load_config,
    logistic_map,
    negation_map,
    omega_plus_probe,
    parabolic_system,
    parse_config,
    ring_rotation,
    sample_initial,
    smooth_field,
    symmetric_limit_survey,
    symmetry_deviation,
    trapping_check,
    validate_dissipativity,
)
from monotone_lab.cli import _build_parser, main
from monotone_lab.config import SECTIONS
from monotone_lab.prevalence import default_amplitude

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASIC = """
# a comment line
[system]
kind = cubic
gain = 0.1

[classify]
max_iterations = 300
"""


# ----------------------------------------------------------------- grammar

def test_parse_basic():
    cfg = parse_config(BASIC)
    assert cfg == {
        "system": {"kind": "cubic", "gain": "0.1"},
        "classify": {"max_iterations": "300"},
    }


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1: unknown section"):
        parse_config("[mystery]")
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config("[system]\nflavor = mint")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("[system]\nkind = cubic\nkind = cubic")
    with pytest.raises(ConfigError, match="line 3: duplicate section"):
        parse_config("[system]\nkind = cubic\n[system]")
    with pytest.raises(ConfigError, match="key outside any section"):
        parse_config("kind = cubic")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("[system]\nkind cubic")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


# ---------------------------------------------------------------- building

def test_build_all_shipped_configs():
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) == 10
    for path in paths:
        exp = build_experiment(load_config(path))
        assert exp.system.name, path.name
        assert exp.budget is None or isinstance(exp.budget, ClassifyBudget)


def test_build_parabolic_fields():
    exp = build_experiment(load_config(CONFIG_DIR / "ring_cubic_5.cfg"))
    assert exp.system.grid.kind == "ring"
    assert exp.system.n == 16
    assert exp.budget.p_max == 8
    assert exp.sampler.strategy == "smooth_field"
    assert exp.count == 100
    assert exp.action is not None and exp.action.kind == "ring_rotation"
    assert exp.tol_sym == 1e-5


def test_build_rejects_bad_values():
    with pytest.raises(ConfigError, match="cannot read"):
        build_experiment(parse_config("[system]\nkind = cubic\ngain = fast"))
    with pytest.raises(ConfigError, match="unknown system kind"):
        build_experiment(parse_config("[system]\nkind = tent"))
    with pytest.raises(ConfigError, match="needs .system."):
        build_experiment(parse_config("[classify]\np_max = 4"))
    with pytest.raises(ConfigError, match="parabolic systems only"):
        build_experiment(parse_config("[system]\nkind = cubic\n[grid]\ndomain = ring"))
    with pytest.raises(ConfigError, match="matrix"):
        build_experiment(
            parse_config("[system]\nkind = linear_cooperative\nmatrix = a,b;c,d")
        )
    with pytest.raises(ConfigError, match="need .grid."):
        build_experiment(parse_config("[system]\nkind = parabolic"))
    with pytest.raises(ConfigError, match="invalid parabolic configuration"):
        build_experiment(
            parse_config(
                "[system]\nkind = parabolic\n[grid]\ndomain = dirichlet\n"
                "[time]\nsteps_per_period = 0"
            )
        )
    with pytest.raises(ConfigError, match="invalid .classify."):
        build_experiment(
            parse_config("[system]\nkind = cubic\n[classify]\nmax_iterations = 0")
        )
    with pytest.raises(ConfigError, match="not used by this configuration"):
        build_experiment(parse_config("[system]\nkind = cubic\nstrength = 5"))
    with pytest.raises(ConfigError, match="unknown strategy"):
        build_experiment(
            parse_config("[system]\nkind = cubic\n[sampling]\nstrategy = halton")
        )
    with pytest.raises(ConfigError, match="needs a strategy"):
        build_experiment(parse_config("[system]\nkind = cubic\n[sampling]\nseed = 1"))
    with pytest.raises(ConfigError, match="action"):
        build_experiment(
            parse_config(
                "[system]\nkind = cubic\n[symmetry]\naction = ring_rotation"
            )
        )


def test_build_overrides():
    cfg = parse_config("[system]\nkind = logistic\nr = 3.5\nname = probe")
    system = build_experiment(cfg).system
    assert system.monotone_expected is False
    assert system.name == "probe"
    assert system.kind.param == 3.5
    # whether a map is expected to be monotone is its kind's, not a key's
    with pytest.raises(
        ConfigError, match=r"^line 4: unknown key 'monotone_expected' in \[system\]$"
    ):
        parse_config("[system]\nkind = cubic\ngain = 0.1\nmonotone_expected = false\n")


def test_build_sampler_default_amplitude():
    # a [sampling] section without an amplitude draws from the same box as
    # estimate_prevalence given no sampler: 0.9 kappa
    for strategy in ("box_uniform", "smooth_field"):
        exp = build_experiment(
            parse_config(
                f"[system]\nkind = cubic\nkappa = 1.5\n"
                f"[sampling]\nstrategy = {strategy}"
            )
        )
        assert exp.sampler.amplitude == 0.9 * 1.5
    assert estimate_prevalence(exp.system, count=0).sampler["amplitude"] == 0.9 * 1.5


def test_build_line_sampler_vectors():
    cfg = parse_config(
        "[system]\nkind = linear_cooperative\n"
        "[sampling]\nstrategy = line_scan\nbase = zero\ndirection = ones\n"
        "resolution = 5"
    )
    sampler = build_experiment(cfg).sampler
    np.testing.assert_array_equal(sampler.base, [0.0, 0.0])
    np.testing.assert_array_equal(sampler.direction, [1.0, 1.0])
    bad = parse_config(
        "[system]\nkind = linear_cooperative\n"
        "[sampling]\nstrategy = line_scan\nbase = 0,0,0\ndirection = ones"
    )
    with pytest.raises(ConfigError, match="entries"):
        build_experiment(bad)


def _plain(obj):
    """A built object as nested plain values, so two builds compare with ==."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return type(obj).__name__, [_plain(getattr(obj, f.name)) for f in fields]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _default(func, name):
    return inspect.signature(func).parameters[name].default


CUBIC = "[system]\nkind = cubic\n"
RING = "[system]\nkind = parabolic\n[grid]\ndomain = ring\nn = 8\n"

# A config that leaves keys out, the Experiment field it builds, and the
# library call that leaves out the same arguments.
LEFT_OUT = [
    (CUBIC, "system", lambda system: cubic_map()),
    ("[system]\nkind = logistic", "system", lambda system: logistic_map()),
    ("[system]\nkind = negation", "system", lambda system: negation_map()),
    (
        "[system]\nkind = linear_cooperative", "system",
        lambda system: linear_cooperative(),
    ),
    *[
        (
            f"[system]\nkind = parabolic\n[grid]\ndomain = {domain}", "system",
            lambda system, domain=domain: parabolic_system(domain),
        )
        for domain in ("dirichlet", "neumann", "ring", "radial")
    ],
    (CUBIC + "[classify]", "budget", lambda system: ClassifyBudget()),
    (
        CUBIC + "[sampling]\nstrategy = box_uniform", "sampler",
        lambda system: SamplerSpec("box_uniform", amplitude=default_amplitude(system)),
    ),
    (
        CUBIC + "[sampling]\nstrategy = smooth_field", "sampler",
        lambda system: SamplerSpec("smooth_field", amplitude=default_amplitude(system)),
    ),
    (
        CUBIC + "[sampling]\nstrategy = line_scan\nbase = 0.1\ndirection = 1",
        "sampler", lambda system: SamplerSpec("line_scan", base=0.1, direction=1.0),
    ),
    (CUBIC, "count", lambda system: _default(estimate_prevalence, "count")),
    (
        CUBIC + "[sampling]\nstrategy = box_uniform", "count",
        lambda system: _default(estimate_prevalence, "count"),
    ),
    (
        RING + "[symmetry]\naction = ring_rotation", "action",
        lambda system: ring_rotation(system.grid),
    ),
    (CUBIC, "tol_sym", lambda system: _default(classify_symmetric_limit, "tol_sym")),
    (
        RING + "[symmetry]\naction = ring_rotation", "tol_sym",
        lambda system: _default(classify_symmetric_limit, "tol_sym"),
    ),
]


@pytest.mark.parametrize("text, field, call", LEFT_OUT)
def test_left_out_key_takes_the_library_default(text, field, call):
    exp = build_experiment(parse_config(text))
    assert _plain(getattr(exp, field)) == _plain(call(exp.system))


def test_library_default_tol_sym_is_one_value():
    funcs = (symmetry_deviation, classify_symmetric_limit, symmetric_limit_survey)
    defaults = {_default(func, "tol_sym") for func in funcs}
    assert defaults == {build_experiment(parse_config(CUBIC)).tol_sym}


def test_build_negation():
    system = build_experiment(parse_config("[system]\nkind = negation")).system
    assert system.kind == negation_map().kind
    assert system.monotone_expected is False
    with pytest.raises(
        ConfigError, match=r"not used by this configuration in \[system\]: \['kappa'\]"
    ):
        build_experiment(parse_config("[system]\nkind = negation\nkappa = 2"))


# --------------------------------------------------------------------- CLI

def cfg(name):
    return str(CONFIG_DIR / name)


def _load(name):
    return build_experiment(load_config(CONFIG_DIR / name))


def test_readme_command_lines_parse():
    text = (CONFIG_DIR.parent / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    assert lines
    parser = _build_parser()
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "monotone-lab", line
        parser.parse_args(words[1:])


def _validation(exp):
    system = exp.system
    checks = {
        "check_monotone": check_monotone(system),
        "check_strong_monotone": check_strong_monotone(system),
        "check_strong_positivity": check_strong_positivity(system),
        "validate_dissipativity": validate_dissipativity(system),
        "trapping_check": trapping_check(system),
    }
    return ValidationReport(system.name, True, checks)


def _classification(exp, x0):
    if exp.action is None:
        cls, verdicts = classify_orbit(exp.system, x0, exp.budget), None
    else:
        cls, verdicts = classify_symmetric_limit(
            exp.system, exp.action, x0, exp.budget, exp.tol_sym
        )
    return ClassificationReport(
        exp.system.name, cls.verdict, cls.iterations_used, cls.diagnostics,
        cls.cycle, verdicts,
    )


def _survey(exp, count):
    states = [sample_initial(exp.sampler, i, exp.system.grid) for i in range(count)]
    survey = symmetric_limit_survey(
        exp.system, exp.action, states, exp.budget, exp.tol_sym
    )
    survey.sampler = exp.sampler.describe()
    return survey


CLASSIFICATION_KEYS = [
    "schema_version", "kind", "system_name", "verdict", "iterations_used",
    "diagnostics", "cycle", "symmetry",
]

# Every JSON document the CLI writes, from a shipped config: the command
# line, its key list and the library report the document must equal.
DOCUMENTS = {
    "validate": (
        ["validate", "cubic.cfg", "--json"],
        ["schema_version", "kind", "system_name", "all_pass", "checks"],
        _validation,
    ),
    "classify": (
        ["classify", "cubic.cfg", "--x0", "0.5", "--json"],
        CLASSIFICATION_KEYS,
        lambda exp: _classification(exp, 0.5),
    ),
    "classify-symmetry": (
        ["classify", "ring_cubic_5.cfg", "--x0", "smooth:0", "--json"],
        CLASSIFICATION_KEYS,
        lambda exp: _classification(
            exp, sample_initial(exp.sampler, 0, exp.system.grid)
        ),
    ),
    "prevalence": (
        ["prevalence", "cubic.cfg", "--samples", "20", "--seed", "3", "--out"],
        [
            "schema_version", "kind", "system_name", "sampler", "count",
            "budget", "counts", "stable_fraction", "wilson_95",
            "period_histogram", "rho_histogram", "caveat", "wall_time",
        ],
        lambda exp: estimate_prevalence(
            exp.system, box_uniform(0.9 * exp.system.kappa, seed=3), count=20,
            budget=exp.budget,
        ),
    ),
    "probe-line": (
        ["probe-line", "cubic_line.cfg", "--out"],
        [
            "schema_version", "kind", "system_name", "sampler", "budget",
            "s_values", "verdicts", "rhos", "stable_count", "bad",
            "bad_fraction", "wall_time",
        ],
        lambda exp: line_probe(exp.system, exp.sampler, budget=exp.budget),
    ),
    "probe-omega": (
        ["probe-omega", "cubic.cfg", "--x0", "zero", "--eps", "1e-2,1e-3", "--out"],
        [
            "schema_version", "kind", "base_point", "direction", "eps_values",
            "tol_set", "base_verdict", "omega_base", "upper", "lower",
            "direction_disagreement", "notes",
        ],
        lambda exp: omega_plus_probe(
            exp.system, 0.0, eps_values=(1e-2, 1e-3), budget=exp.budget
        ),
    ),
    "symmetry": (
        ["symmetry", "ring_cubic_5.cfg", "--samples", "3", "--out"],
        [
            "schema_version", "kind", "count", "stable_count", "symmetric_count",
            "symmetric_fraction", "max_deviation", "verdicts", "deviations",
            "tol_sym", "system_name", "sampler",
        ],
        lambda exp: _survey(exp, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_cli_documents_are_library_reports(tmp_path, capsys, name):
    argv, keys, build = DOCUMENTS[name]
    path = tmp_path / "doc.json"
    assert main([argv[0], cfg(argv[1]), *argv[2:], str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert list(doc) == keys
    want = json.loads(json.dumps(build(_load(argv[1])).to_json()))
    for got in (doc, want):
        got.pop("wall_time", None)
    assert doc == want


def test_cli_usage_errors(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["classify", cfg("cubic.cfg")]) == 1  # --x0 is required
    capsys.readouterr()


def test_cli_missing_or_malformed_config(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "none.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("[system]\nflavor = mint\n")
    assert main(["validate", str(bad)]) == 1
    capsys.readouterr()


def test_cli_validate_passes_on_cubic(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["validate", cfg("cubic.cfg"), "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "check_monotone: PASS" in out
    assert "overall: PASS" in out
    doc = json.loads(report.read_text())
    assert doc["schema_version"] == 2
    # each check is a JSON object, not a JSON document nested as a string
    violations = doc["checks"]["check_monotone"]["violations"]
    assert type(violations) is int and violations == 0


def test_cli_validate_fails_on_logistic(tmp_path, capsys):
    assert main(["validate", cfg("logistic.cfg")]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "declared non-monotone" in out
    report = tmp_path / "report.json"
    assert main(
        ["validate", cfg("logistic.cfg"), "--report-only", "--json", str(report)]
    ) == 0
    doc = json.loads(report.read_text())
    assert doc["kind"] == "validate"
    assert doc["all_pass"] is False
    capsys.readouterr()


def test_cli_validate_flags_broken_dissipativity(capsys):
    assert main(["validate", cfg("dirichlet_linear_unstable.cfg")]) == 2
    out = capsys.readouterr().out
    assert "validate_dissipativity: FAIL" in out


def test_cli_simulate_stdout_and_files(tmp_path, capsys):
    assert main(["simulate", cfg("cubic.cfg"), "--x0", "0.3", "--iters", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("iter,node_0")
    assert "final iterate 5" in out

    orbit = tmp_path / "orbit.csv"
    norms = tmp_path / "norms.dat"
    assert main(
        [
            "simulate", cfg("cubic.cfg"), "--x0", "0.3", "--iters", "4",
            "--thin", "2", "--out", str(orbit), "--norm-out", str(norms),
        ]
    ) == 0
    capsys.readouterr()
    lines = orbit.read_text().strip().split("\n")
    assert len(lines) == 4  # header + iterates 0, 2, 4
    norm_lines = norms.read_text().strip().split("\n")
    assert norm_lines[0] == "# iter sup_norm"
    assert len(norm_lines) == 4


def test_cli_simulate_zero_iters_header_only(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    assert main(
        ["simulate", cfg("cubic.cfg"), "--x0", "zero", "--iters", "0",
         "--out", str(out_path)]
    ) == 0
    capsys.readouterr()
    assert out_path.read_text() == "iter,node_0\n"


def test_cli_x0_forms(tmp_path, capsys):
    vec = tmp_path / "x0.txt"
    vec.write_text("0.25\n")
    assert main(["simulate", cfg("cubic.cfg"), "--x0", f"@{vec}", "--iters", "1"]) == 0
    # wrong dimension in the file
    vec.write_text("0.25, 0.5\n")
    assert main(["simulate", cfg("cubic.cfg"), "--x0", f"@{vec}", "--iters", "1"]) == 1
    # smooth samples need a spatial grid
    assert main(["simulate", cfg("cubic.cfg"), "--x0", "smooth:0", "--iters", "1"]) == 1
    assert main(["simulate", cfg("cubic.cfg"), "--x0", "smooth:x", "--iters", "1"]) == 1
    assert main(
        ["simulate", cfg("ring_cubic_5.cfg"), "--x0", "smooth:2", "--iters", "2"]
    ) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "name", ["cubic", "cubic_line", "linear_cooperative", "logistic"]
)
def test_cli_smooth_x0_refused_on_flat_grids(name, capsys):
    assert main(["classify", cfg(f"{name}.cfg"), "--x0", "smooth:3"]) == 1
    assert capsys.readouterr().err == "error: smooth_field sampling needs a spatial grid\n"


def test_cli_smooth_x0_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        assert main(
            ["simulate", cfg("ring_cubic_5.cfg"), "--x0", "smooth:3",
             "--iters", "2", "--out", str(path)]
        ) == 0
    capsys.readouterr()
    assert first.read_text() == second.read_text()


def test_cli_smooth_x0_default_amplitude(tmp_path, capsys):
    # without a smooth_field sampler, smooth:K draws at the package default
    # amplitude, 0.9 kappa
    exp = build_experiment(load_config(cfg("dirichlet_cubic_5.cfg")))
    assert exp.sampler is None
    orbit = tmp_path / "orbit.csv"
    assert main(
        ["simulate", cfg("dirichlet_cubic_5.cfg"), "--x0", "smooth:3",
         "--iters", "1", "--out", str(orbit)]
    ) == 0
    capsys.readouterr()
    first = orbit.read_text().splitlines()[1].split(",")
    sampler = smooth_field(amplitude=default_amplitude(exp.system), modes=6, seed=0)
    expected = sample_initial(sampler, 3, exp.system.grid).values
    np.testing.assert_array_equal([float(v) for v in first[1:]], expected)


def test_cli_classify_with_symmetry(tmp_path, capsys):
    report = tmp_path / "cls.json"
    assert main(
        ["classify", cfg("cubic.cfg"), "--x0", "0.5", "--json", str(report)]
    ) == 0
    out = capsys.readouterr().out
    assert "verdict: stable_cycle" in out
    doc = json.loads(report.read_text())
    assert doc["kind"] == "classification"
    assert doc["cycle"]["period"] == 1
    assert doc["symmetry"] is None

    assert main(
        ["classify", cfg("ring_cubic_5.cfg"), "--x0", "smooth:0",
         "--json", str(report)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "stable_cycle"
    assert doc["symmetry"] and all(v["symmetric"] for v in doc["symmetry"])


def test_cli_prevalence_reports(tmp_path, capsys):
    report = tmp_path / "prev.json"
    csv_path = tmp_path / "prev.csv"
    assert main(
        ["prevalence", cfg("cubic.cfg"), "--samples", "30", "--seed", "3",
         "--out", str(report), "--csv", str(csv_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "stable fraction" in out
    assert "Monte Carlo evidence" in out
    doc = json.loads(report.read_text())
    assert doc["count"] == 30
    assert sum(doc["counts"].values()) == 30
    assert doc["sampler"]["seed"] == 3
    assert len(csv_path.read_text().strip().split("\n")) == 7


def test_cli_prevalence_thread_count_only_changes_wall_time(tmp_path, capsys):
    docs = []
    for threads, name in (("1", "one.json"), ("4", "four.json")):
        path = tmp_path / name
        assert main(
            ["prevalence", cfg("cubic.cfg"), "--samples", "40", "--seed", "9",
             "--threads", threads, "--out", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        doc.pop("wall_time")
        docs.append(doc)
    capsys.readouterr()
    assert docs[0] == docs[1]


def test_cli_prevalence_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MONOTONE_LAB_THREADS", "2")
    path = tmp_path / "env.json"
    assert main(
        ["prevalence", cfg("cubic.cfg"), "--samples", "10", "--seed", "9",
         "--threads", "1", "--out", str(path)]
    ) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["count"] == 10


def test_cli_probe_line(tmp_path, capsys):
    report = tmp_path / "line.json"
    assert main(["probe-line", cfg("cubic_line.cfg"), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "stable" in out
    doc = json.loads(report.read_text())
    assert doc["kind"] == "line_probe"
    assert len(doc["verdicts"]) == 101
    assert len(doc["bad"]) <= 1


def test_cli_probe_line_flag_overrides(capsys):
    assert main(
        ["probe-line", cfg("cubic.cfg"), "--base", "-0.2", "--direction", "1",
         "--range", "0:0.5", "--resolution", "6"]
    ) == 0
    out = capsys.readouterr().out
    assert "6 stable" in out or "stable" in out
    assert main(["probe-line", cfg("cubic.cfg")]) == 1  # no line anywhere
    assert main(
        ["probe-line", cfg("cubic.cfg"), "--base", "0", "--direction", "1",
         "--range", "junk"]
    ) == 1
    capsys.readouterr()


def test_cli_probe_omega(tmp_path, capsys):
    report = tmp_path / "omega.json"
    assert main(
        ["probe-omega", cfg("cubic.cfg"), "--x0", "zero",
         "--eps", "1e-2,1e-3", "--out", str(report)]
    ) == 0
    out = capsys.readouterr().out
    assert "base verdict: unstable_cycle" in out
    assert "upper: member" in out
    doc = json.loads(report.read_text())
    assert doc["kind"] == "omega_probe"
    assert doc["upper"]["membership"] == "member"
    assert main(["probe-omega", cfg("cubic.cfg"), "--x0", "zero", "--eps", "abc"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--eps", "--direction"])
def test_cli_probe_omega_refuses_nan(capsys, flag):
    # a NaN push is a usage error, refused before any orbit is mapped
    assert main(["probe-omega", cfg("cubic.cfg"), "--x0", "0.3", flag, "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_symmetry_survey(tmp_path, capsys):
    report = tmp_path / "sym.json"
    assert main(
        ["symmetry", cfg("ring_cubic_5.cfg"), "--samples", "5", "--out", str(report)]
    ) == 0
    out = capsys.readouterr().out
    assert "symmetric limits: 5/5" in out
    doc = json.loads(report.read_text())
    assert doc["kind"] == "symmetry_survey"
    assert doc["symmetric_fraction"] == 1.0


def test_cli_symmetry_without_samples_reports_no_fraction(tmp_path, capsys):
    report = tmp_path / "sym.json"
    assert main(
        ["symmetry", cfg("ring_cubic_5.cfg"), "--samples", "0", "--out", str(report)]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "symmetric limits: 0/0 (fraction undefined, no samples), max deviation 0"
    )
    doc = json.loads(report.read_text())
    assert (doc["count"], doc["symmetric_fraction"], doc["verdicts"]) == (0, None, [])


@pytest.mark.parametrize("args, message", [
    (["prevalence", "cubic.cfg", "--samples", "-1"], "--samples must be nonnegative"),
    (["simulate", "cubic.cfg", "--x0", "0.3", "--iters", "-1"], "--iters must be nonnegative"),
    (["simulate", "cubic.cfg", "--x0", "0.3", "--thin", "0"], "--thin must be at least 1"),
])
def test_cli_names_the_count_flag_it_refuses(args, message, capsys):
    command, config, *flags = args
    assert main([command, cfg(config), *flags]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_symmetry_requires_section_and_equivariance(tmp_path, capsys):
    assert main(["symmetry", cfg("cubic.cfg"), "--samples", "2"]) == 1
    capsys.readouterr()
    assert main(["symmetry", cfg("ring_cubic_5.cfg"), "--samples", "-3"]) == 1
    assert capsys.readouterr().err == "error: --samples must be nonnegative\n"
    broken = tmp_path / "broken.cfg"
    broken.write_text(
        "[system]\nkind = parabolic\nstrength = 5.0\nspatial_profile = wave\n"
        "name = ring_wave\n\n[grid]\ndomain = ring\nn = 16\n\n"
        "[classify]\nmax_iterations = 120\np_max = 8\n\n"
        "[symmetry]\naction = ring_rotation\n"
    )
    assert main(["symmetry", str(broken), "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert "refusing" in err


@pytest.mark.parametrize("text", [CUBIC, RING], ids=["closed_form", "parabolic"])
@pytest.mark.parametrize("command", [["validate"], ["prevalence", "--samples", "3"]],
                         ids=["validate", "prevalence"])
def test_cli_refuses_a_kappa_whose_box_width_overflows(text, command, tmp_path, capsys):
    # 1e308 is finite, 2e308 is not: the box draws uniform in (-kappa, kappa)
    path = tmp_path / "huge_kappa.cfg"
    path.write_text(text.replace("[system]\n", "[system]\nkappa = 1e308\n"))
    assert main([command[0], str(path), *command[1:]]) == 1
    message = "[system] kappa: '1e308' overflows the box width 2 kappa"
    assert capsys.readouterr().err == f"error: {message}\n"
    path.write_text(text.replace("[system]\n", "[system]\nkappa = 8e307\n"))
    assert build_experiment(load_config(path)).system.kappa == 8e307


def test_cli_symmetry_refuses_a_sampler_outside_the_box(tmp_path, capsys):
    wide = tmp_path / "wide.cfg"
    wide.write_text(
        "[system]\nkind = parabolic\nkappa = 1.5\n[grid]\ndomain = ring\nn = 8\n"
        "[sampling]\nstrategy = box_uniform\namplitude = 2.9\n"
        "[symmetry]\naction = ring_rotation\n"
    )
    message = "sampler amplitude 2.9 exceeds the trapping amplitude 1.5"
    for command in ("prevalence", "symmetry"):
        assert main([command, str(wide), "--samples", "10"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


PARABOLIC = "[system]\nkind = parabolic\n{system}[grid]\ndomain = ring\nn = 8\n"
LINE = {"base": "0", "direction": "1", "s_min": "0", "s_max": "1"}

# one config per float key, line vector and removed key, reading its value
# from {value}
NONFINITE_CONFIGS = {
    **{key: CUBIC + f"{key} = {{value}}\n" for key in ("kappa", "gain")},
    "r": "[system]\nkind = logistic\nr = {value}\n",
    **{
        key: PARABOLIC.format(system=f"{key} = {{value}}\n")
        for key in ("strength", "modulation", "diffusivity")
    },
    **{
        key: PARABOLIC.format(system="") + f"[time]\n{key} = {{value}}\n"
        for key in ("tau", "theta")
    },
    "amplitude": CUBIC + "[sampling]\nstrategy = box_uniform\namplitude = {value}\n",
    **{
        key: CUBIC + "[sampling]\nstrategy = line_scan\n" + "".join(
            f"{field} = {'{value}' if field == key else value}\n"
            for field, value in LINE.items()
        )
        for key in LINE
    },
    **{
        key: CUBIC + f"[classify]\n{key} = {{value}}\n"
        for key in ("tol_cyc", "tol_stab")
    },
    "tol_sym": PARABOLIC.format(system="") + "[symmetry]\naction = ring_rotation\n"
    "tol_sym = {value}\n",
    "p_max": CUBIC + "[classify]\np_max = {value}\n",
    "strategy": CUBIC + "[sampling]\nstrategy = {value}\n",
}
# the command that reaches each key; prevalence refuses the logistic map
NONFINITE_COMMANDS = {
    "r": ["classify", "--x0", "0.3"],
    "tol_sym": ["symmetry", "--samples", "3"],
}
FLOAT_SECTIONS = {
    key: section for section, table in SECTIONS.items()
    for key, kind in table.items() if kind is float
}
# keys the format no longer has: the parser refuses them by line number
UNKNOWN = {"theta": "line 7: unknown key 'theta' in [time]"}
# values a key cannot read or does not accept, with the message of each:
# the key's own refusal, without a second prefix from its section's builder
MISREAD = {
    ("strength", "abc"): "[system] strength: cannot read 'abc' as float",
    ("p_max", "2.5"): "[classify] p_max: cannot read '2.5' as int",
    ("strategy", "mystery"): "[sampling] strategy: unknown strategy 'mystery'",
    ("base", "0,0"): "[sampling] base has 2 entries, the system has 1 nodes",
}


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in sorted([*FLOAT_SECTIONS, *UNKNOWN, "base", "direction"])
      for value in ("nan", "inf")),
    *MISREAD,
])
def test_cli_refuses_nonfinite_parameters(key, value, tmp_path, capsys):
    path = tmp_path / "nonfinite.cfg"
    path.write_text(NONFINITE_CONFIGS[key].format(value=value))
    command, *flags = NONFINITE_COMMANDS.get(key, ["prevalence", "--samples", "3"])
    assert main([command, str(path), *flags]) == 1
    if (key, value) in MISREAD:
        message = MISREAD[key, value]
    elif key in UNKNOWN:
        message = UNKNOWN[key]
    elif key in FLOAT_SECTIONS:
        message = f"[{FLOAT_SECTIONS[key]}] {key}: {value!r} is not finite"
    elif (key, value) == ("direction", "nan"):
        # base and direction are vectors, which SamplerSpec refuses; a nan
        # direction fails its positivity check before the finiteness one
        message = "invalid [sampling] section: line_scan direction must be strongly positive"
    else:
        message = "invalid [sampling] section: line_scan base, direction and range must be finite"
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("system, strength", [
    ("", "1e308"),
    ("modulation = 0.5\n", "9e307"),
    ("spatial_profile = ramp\nmodulation = 0.3\n", "7e307"),
])
def test_cli_refuses_a_strength_whose_reaction_factor_overflows(system, strength,
                                                                tmp_path, capsys):
    # each step weighs its reaction by 1.5 * amplitude * profile, and the
    # amplitude peaks at strength * (1 + modulation)
    path = tmp_path / "huge_strength.cfg"
    path.write_text(PARABOLIC.format(system=f"{system}strength = {strength}\n"))
    assert main(["validate", str(path)]) == 1
    message = (f"invalid parabolic configuration: strength {float(strength)!r}: the reaction "
               "factor 1.5 * strength * (1 + modulation) * profile is not finite")
    assert capsys.readouterr().err == f"error: {message}\n"
    path.write_text(PARABOLIC.format(system=f"{system}strength = 5e307\n"))
    assert build_experiment(load_config(path)).system.kind.nonlinearity.strength == 5e307


@pytest.mark.parametrize("key, message", [
    ("seed", "invalid [sampling] section: seed must be nonnegative"),
    ("count", "[sampling] count must be nonnegative"),
])
def test_cli_refuses_a_negative_seed_or_count(key, message, tmp_path, capsys):
    text = (CONFIG_DIR / "ring_cubic_5.cfg").read_text()
    line = next(row for row in text.splitlines() if row.startswith(f"{key} = "))
    path = tmp_path / "negative.cfg"
    path.write_text(text.replace(line, f"{key} = -1"))
    for command in (["prevalence"], ["symmetry"], ["classify", "--x0", "smooth:3"]):
        assert main([command[0], str(path), *command[1:]]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    path.write_text(text.replace(line, f"{key} = 0"))
    exp = build_experiment(load_config(path))
    assert (exp.sampler.seed if key == "seed" else exp.count) == 0


def test_cli_refuses_a_negative_seed_flag(capsys):
    for command in ("prevalence", "symmetry"):
        assert main([command, cfg("ring_cubic_5.cfg"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative\n"
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SamplerSpec("box_uniform", seed=-1)
