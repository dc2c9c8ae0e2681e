"""Command-line front end.

Subcommands: validate, simulate, classify, prevalence, probe-line,
probe-omega, symmetry. Each takes a config file and writes data files
(JSON reports, orbit CSV, two-column plot data); there is no interactive
mode and no figure rendering.

Every JSON document is one library report, written as its ``to_json()``:
validate a ValidationReport, classify a ClassificationReport, prevalence a
PrevalenceReport, probe-line a LineReport, probe-omega an OmegaProbeReport
and symmetry a SymmetrySurvey. A command builds its report, prints its
summary from it and writes it; the header (``schema_version``, ``kind``)
comes from the report class.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical or
validation failure. The --threads flag and the MONOTONE_LAB_THREADS
variable are accepted and ignored: ensembles run in lockstep blocks on
one thread, so neither changes speed or results.
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, NumericalError
from .config import _resolve_vector, _vector, build_experiment, load_config
from . import asymptotics, order, prevalence, symmetry, systems


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="monotone-lab",
        description="experiments on strongly monotone discrete-time systems",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="run the standing-assumption checks")
    p.add_argument("config")
    p.add_argument("--json", dest="json_out", metavar="PATH")
    p.add_argument(
        "--report-only",
        action="store_true",
        help="exit 0 even when checks fail; the report still lists failures",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="iterate an orbit and export CSV")
    p.add_argument("config")
    p.add_argument("--x0", required=True, help="zero | smooth:K | @file | v1,v2,...")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--out", metavar="PATH", help="orbit CSV (default stdout)")
    p.add_argument(
        "--norm-out", metavar="PATH", help="two-column (iter, sup-norm) plot data"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="classify the orbit of one state")
    p.add_argument("config")
    p.add_argument("--x0", required=True, help="zero | smooth:K | @file | v1,v2,...")
    p.add_argument("--json", dest="json_out", metavar="PATH")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("prevalence", help="ensemble classification statistics")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", metavar="PATH", help="JSON report path")
    p.add_argument("--csv", dest="csv_out", metavar="PATH", help="CSV summary path")
    p.set_defaults(func=cmd_prevalence)

    p = sub.add_parser("probe-line", help="classify points along a straight line")
    p.add_argument("config")
    p.add_argument("--base", help="zero | ones | v1,v2,...")
    p.add_argument("--direction", help="zero | ones | v1,v2,...")
    p.add_argument("--range", dest="s_range", metavar="A:B")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_probe_line)

    p = sub.add_parser(
        "probe-omega", help="one-sided omega limits under small pushes"
    )
    p.add_argument("config")
    p.add_argument("--x0", required=True, help="zero | smooth:K | @file | v1,v2,...")
    p.add_argument("--eps", default="1e-2,1e-3,1e-4", help="comma list of epsilons")
    p.add_argument("--direction", help="ones | v1,v2,...")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_probe_omega)

    p = sub.add_parser("symmetry", help="symmetric-limit survey under an action")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_symmetry)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if getattr(ns, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return ns.func(ns)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    # ConfigError is a ValueError
    except (_UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# shared helpers

def _load(path):
    return build_experiment(load_config(path))


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _emit_json(path, report, label):
    """Write the report's document to path, if one was given."""
    if path:
        _write_text(path, json.dumps(report.to_json(), indent=2) + "\n")
        print(f"{label} written to {path}")


def _default_smooth(exp):
    sampler = exp.sampler
    if sampler is not None and sampler.strategy == "smooth_field":
        return sampler
    return prevalence.smooth_field(amplitude=prevalence.default_amplitude(exp.system))


def _parse_x0(spec, exp):
    system = exp.system
    if spec == "zero":
        return system.zero_state()
    if spec.startswith("smooth:"):
        try:
            index = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad smooth sample index in {spec!r}") from exc
        return prevalence.sample_initial(_default_smooth(exp), index, system.grid)
    if spec.startswith("@"):
        path = spec[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                tokens = fh.read().replace(",", " ").split()
            values = [float(tok) for tok in tokens]
        except OSError as exc:
            raise ConfigError(f"cannot read x0 file {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"x0 file {path} is not a list of numbers") from exc
        return system.state(values)
    try:
        values = [float(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(
            f"cannot parse x0 {spec!r}; expected zero, smooth:K, @file, "
            f"or a comma list"
        ) from exc
    return system.state(values)


def _flag_vector(name, text, n):
    return _resolve_vector(_vector("cli", name, text), n, f"--{name}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(ns):
    exp = _load(ns.config)
    system = exp.system
    checks = {
        "check_monotone": order.check_monotone(system),
        "check_strong_monotone": order.check_strong_monotone(system),
        "check_strong_positivity": systems.check_strong_positivity(system),
    }
    try:
        checks["validate_dissipativity"] = systems.validate_dissipativity(system)
    except ValueError as exc:
        checks["validate_dissipativity"] = {"skipped": True, "reason": str(exc)}
    checks["trapping_check"] = systems.trapping_check(system)
    if exp.action is not None:
        checks["check_equivariance"] = symmetry.check_equivariance(system, exp.action)
    all_pass = all(
        c.passed for c in checks.values() if isinstance(c, order.PropertyReport)
    )
    report = order.ValidationReport(system.name, all_pass, checks)

    for name, check in report.checks.items():
        if isinstance(check, order.PropertyReport):
            print(
                f"{name}: {'PASS' if check.passed else 'FAIL'} "
                f"(violations {check.violations}/{check.pairs_tested}, "
                f"worst margin {check.worst_margin:.3g})"
            )
        else:
            print(f"{name}: SKIPPED ({check['reason']})")
    if not system.monotone_expected:
        print("note: system is declared non-monotone; failures above are expected")
    _emit_json(ns.json_out, report, "validation report")
    print(f"overall: {'PASS' if report.all_pass else 'FAIL'}")
    if report.all_pass or ns.report_only:
        return 0
    return 2


def cmd_simulate(ns):
    exp = _load(ns.config)
    x0 = _parse_x0(ns.x0, exp)
    orbit = asymptotics.iterate_orbit(exp.system, x0, ns.iters, thinning=ns.thin)
    csv_text = orbit.to_csv()
    if ns.iters == 0:
        # a zero-length run emits the schema header alone
        csv_text = csv_text.splitlines()[0] + "\n"
    if ns.out:
        _write_text(ns.out, csv_text)
        print(f"orbit CSV written to {ns.out}")
    else:
        print(csv_text, end="")
    if ns.norm_out:
        lines = ["# iter sup_norm"]
        for idx, row in zip(orbit.indices, orbit.samples):
            lines.append(f"{int(idx)} {np.max(np.abs(row)):.17g}")
        _write_text(ns.norm_out, "\n".join(lines) + "\n")
        print(f"sup-norm trace written to {ns.norm_out}")
    final = orbit.samples[-1]
    print(
        f"final iterate {int(orbit.indices[-1])}, sup norm "
        f"{np.max(np.abs(final)):.6g}, escaped: {orbit.escaped}"
    )
    return 0


def cmd_classify(ns):
    exp = _load(ns.config)
    x0 = _parse_x0(ns.x0, exp)
    if exp.action is not None:
        cls, verdicts = symmetry.classify_symmetric_limit(
            exp.system, exp.action, x0, exp.budget, exp.tol_sym
        )
    else:
        cls = asymptotics.classify_orbit(exp.system, x0, exp.budget)
        verdicts = None
    report = asymptotics.ClassificationReport(
        exp.system.name, cls.verdict, cls.iterations_used, cls.diagnostics,
        cls.cycle, verdicts,
    )
    print(f"verdict: {report.verdict} ({report.diagnostics})")
    _emit_json(ns.json_out, report, "classification report")
    return 0


def cmd_prevalence(ns):
    exp = _load(ns.config)
    sampler = exp.sampler or prevalence.default_sampler(exp.system)
    if ns.seed is not None:
        sampler = replace(sampler, seed=ns.seed)
    count = ns.samples if ns.samples is not None else exp.count
    report = prevalence.estimate_prevalence(
        exp.system, sampler, count=count, budget=exp.budget, threads=ns.threads
    )
    for name in asymptotics.VERDICTS:
        print(f"{name}: {report.counts[name]}")
    if report.stable_fraction is None:
        print("stable fraction undefined (no samples)")
    else:
        lo, hi = report.wilson_95
        print(
            f"stable fraction {report.stable_fraction:.4f} "
            f"(Wilson 95% [{lo:.4f}, {hi:.4f}])"
        )
    print(f"note: {report.caveat}")
    _emit_json(ns.out, report, "prevalence report")
    if ns.csv_out:
        _write_text(ns.csv_out, report.to_csv())
        print(f"prevalence CSV written to {ns.csv_out}")
    return 0


def cmd_probe_line(ns):
    exp = _load(ns.config)
    system = exp.system
    line = {}
    if exp.sampler is not None and exp.sampler.strategy == "line_scan":
        line = {
            key: getattr(exp.sampler, key)
            for key in prevalence.STRATEGIES["line_scan"]
        }
    if ns.base is not None:
        line["base"] = _flag_vector("base", ns.base, system.n)
    if ns.direction is not None:
        line["direction"] = _flag_vector("direction", ns.direction, system.n)
    if ns.s_range is not None:
        try:
            lo, hi = ns.s_range.split(":", 1)
            line["s_min"], line["s_max"] = float(lo), float(hi)
        except ValueError as exc:
            raise ConfigError(f"bad --range {ns.s_range!r}, expected A:B") from exc
    if ns.resolution is not None:
        line["resolution"] = ns.resolution
    if "base" not in line or "direction" not in line:
        raise ConfigError(
            "probe-line needs a line: give --base/--direction or a "
            "[sampling] line_scan section"
        )
    sampler = prevalence.line_scan(**line)
    report = prevalence.line_probe(
        system, sampler, budget=exp.budget, threads=ns.threads
    )
    print(
        f"{report.stable_count}/{len(report.s_values)} stable, "
        f"{len(report.bad)} exceptional"
    )
    for entry in report.bad:
        print(f"  s = {entry['s']:.6g}: {entry['verdict']}")
    _emit_json(ns.out, report, "line report")
    return 0


def cmd_probe_omega(ns):
    exp = _load(ns.config)
    x0 = _parse_x0(ns.x0, exp)
    try:
        eps_values = tuple(float(tok) for tok in ns.eps.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --eps {ns.eps!r}") from exc
    direction = None
    if ns.direction is not None:
        direction = _flag_vector("direction", ns.direction, exp.system.n)
    report = asymptotics.omega_plus_probe(
        exp.system, x0, direction=direction, eps_values=eps_values,
        budget=exp.budget,
    )
    print(f"base verdict: {report.base_verdict}")
    for side, name in ((report.upper, "upper"), (report.lower, "lower")):
        limit = "-" if side.limit is None else np.array2string(
            np.asarray(side.limit).ravel(), precision=6
        )
        print(
            f"{name}: {side.membership} (consistent: {side.consistent}, "
            f"limit {limit})"
        )
    if report.notes:
        print(f"note: {report.notes}")
    _emit_json(ns.out, report, "omega probe report")
    return 0


def cmd_symmetry(ns):
    exp = _load(ns.config)
    if exp.action is None:
        raise ConfigError("symmetry command needs a [symmetry] section")
    system = exp.system
    sampler = exp.sampler if exp.sampler is not None else _default_smooth(exp)
    if ns.seed is not None:
        sampler = replace(sampler, seed=ns.seed)
    count = ns.samples if ns.samples is not None else exp.count
    starts = prevalence.sample_starts(system, sampler, count)
    gate = symmetry.check_equivariance(system, exp.action)
    if not gate.passed:
        print(
            f"equivariance check failed (worst violation "
            f"{gate.worst_margin:.3g}); refusing to survey a non-equivariant "
            f"pair",
            file=sys.stderr,
        )
        return 2
    survey = symmetry.symmetric_limit_survey(
        system, exp.action, starts.T, exp.budget, exp.tol_sym
    )
    survey.sampler = sampler.describe()
    print(
        f"symmetric limits: {survey.symmetric_count}/{survey.count} "
        f"(fraction {survey.symmetric_fraction:.4f}), max deviation "
        f"{survey.max_deviation:.3g}"
    )
    _emit_json(ns.out, survey, "symmetry survey")
    return 0


if __name__ == "__main__":
    sys.exit(main())
