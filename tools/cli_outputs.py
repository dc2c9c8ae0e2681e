"""Record what a fixed set of CLI commands print and write, for diffing.

    python3 tools/cli_outputs.py CHECKOUT OUTDIR

Runs 55 ``monotone-lab`` commands against the package in ``CHECKOUT/src``
and the configs in ``CHECKOUT/configs``, one process each and one after
another, with ``CHECKOUT`` as the working directory:

- for each shipped config: ``prevalence --samples 40`` (JSON and CSV),
  ``validate --report-only``, ``classify --x0 smooth:3`` and
  ``probe-omega --x0 zero``;
- ``prevalence --samples 300`` on ``cubic.cfg``: three 128-column blocks,
  the last one partial;
- ``probe-line`` on ``cubic_line.cfg`` at the default resolution and at
  ``--resolution 301`` and ``1001`` (several 128-column blocks), and on
  ``dirichlet_cubic_15.cfg`` along the ones direction through zero, a
  parabolic line that crosses an unstable cycle;
- ``symmetry`` on ``ring_cubic_5.cfg`` with 60 samples and seed 9;
- ``simulate`` on ``cubic.cfg`` from 0.3 for 50 iterations;
- ``--help`` of the entry point and of each of its seven subcommands.

Every command runs with ``COLUMNS=80``, so argparse wraps help text the
same way on every terminal.

For a command ``NAME``, ``OUTDIR/NAME.log`` holds its exit code, stdout and
stderr, and ``OUTDIR/NAME.*`` the files it wrote. The checkout and output
paths are replaced by ``<CHECKOUT>`` and ``<OUT>``, and every ``wall_time``
value by ``null``, so two checkouts that behave alike give trees that
``diff -r`` finds equal:

    python3 tools/cli_outputs.py ../parent /tmp/a
    python3 tools/cli_outputs.py . /tmp/b
    diff -r /tmp/a /tmp/b

    python3 tools/cli_outputs.py --golden

rewrites ``tests/golden/cli_facts.json`` from this checkout: the
machine-stable facts of the commands, each run in this process through
``cli.main``, which ``tests/test_cli_golden.py`` checks in the same way.
The facts are the exit code and stderr, the help text of the ``--help``
commands, and from the files written: verdicts and their counts, periods,
``iterations_used``, the ``bad`` list, ``passed``, ``violations`` and
``pairs_tested``, rho, margins, limits, Wilson bounds and sup norms.
Floats are compared to a relative 1e-9, with an absolute 1e-12 floor for
values at roundoff. The commands in ``SLOW`` are left out.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

_WALL_TIME = re.compile(r'("wall_time":\s*)[^,\n}]+')
SUBCOMMANDS = (
    "validate", "simulate", "classify", "prevalence", "probe-line",
    "probe-omega", "symmetry",
)
GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli_facts.json"
# left out of the golden facts: in-process these six take about 5 s
# together, the other 40 commands that are not --help about 1.2 s
SLOW = {
    "prevalence-dirichlet_linear_unstable", "validate-dirichlet_linear_unstable",
    "probe-omega-dirichlet_linear_unstable", "validate-dirichlet_cubic_5",
    "validate-dirichlet_cubic_15", "validate-radial_cubic_15",
}
# report keys whose values are facts; a key not listed is searched for
# nested facts, and dropped (with wall_time, sampler and budget) if it has none
FACT_KEYS = {
    "count", "counts", "period_histogram", "stable_fraction", "wilson_95",
    "all_pass", "pairs_tested", "violations", "worst_margin",
    "verdict", "iterations_used", "period", "rho", "stability", "rhos", "bad",
    "stable_count", "base_verdict", "verdicts", "consistent", "limit",
    "distance_to_base", "membership", "direction_disagreement", "tol_set",
    "symmetric_count", "max_deviation", "deviations",
}
REL, ABS = 1e-9, 1e-12


def commands(checkout):
    """(name, argv, files) per command; files maps a flag to a suffix."""
    out = []
    for cfg in sorted((checkout / "configs").glob("*.cfg")):
        path, stem = f"configs/{cfg.name}", cfg.stem
        out += [
            (f"prevalence-{stem}", ["prevalence", path, "--samples", "40"],
             {"--out": "json", "--csv": "csv"}),
            (f"validate-{stem}", ["validate", path, "--report-only"],
             {"--json": "json"}),
            (f"classify-{stem}", ["classify", path, "--x0", "smooth:3"],
             {"--json": "json"}),
            (f"probe-omega-{stem}", ["probe-omega", path, "--x0", "zero"],
             {"--out": "json"}),
        ]
    line = "configs/cubic_line.cfg"
    out += [
        ("prevalence-cubic-300", ["prevalence", "configs/cubic.cfg", "--samples", "300"],
         {"--out": "json", "--csv": "csv"}),
        ("probe-line-default", ["probe-line", line], {"--out": "json"}),
        ("probe-line-301", ["probe-line", line, "--resolution", "301"],
         {"--out": "json"}),
        ("probe-line-1001", ["probe-line", line, "--resolution", "1001"],
         {"--out": "json"}),
        ("probe-line-dirichlet_cubic_15",
         ["probe-line", "configs/dirichlet_cubic_15.cfg", "--base", "zero",
          "--direction", "ones", "--range=-0.6:0.6", "--resolution", "41"],
         {"--out": "json"}),
        ("symmetry-ring_cubic_5",
         ["symmetry", "configs/ring_cubic_5.cfg", "--samples", "60",
          "--seed", "9"],
         {"--out": "json"}),
        ("simulate-cubic",
         ["simulate", "configs/cubic.cfg", "--x0", "0.3", "--iters", "50"],
         {"--norm-out": "norm"}),
        ("help", ["--help"], {}),
    ]
    out += [(f"help-{cmd}", [cmd, "--help"], {}) for cmd in SUBCOMMANDS]
    return out


def normalise(text, checkout, outdir):
    text = text.replace(str(outdir), "<OUT>").replace(str(checkout), "<CHECKOUT>")
    return _WALL_TIME.sub(r"\1null", text)


def run(checkout, outdir):
    checkout, outdir = Path(checkout).resolve(), Path(outdir).resolve()
    if not (checkout / "src" / "monotone_lab").is_dir():
        raise SystemExit(f"{checkout} has no src/monotone_lab")
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), COLUMNS="80")
    env.pop("MONOTONE_LAB_THREADS", None)
    todo = commands(checkout)
    for name, argv, files in todo:
        written = {flag: outdir / f"{name}.{suffix}" for flag, suffix in files.items()}
        for path in written.values():
            path.unlink(missing_ok=True)
        flags = [arg for flag, path in written.items() for arg in (flag, str(path))]
        proc = subprocess.run(
            [sys.executable, "-m", "monotone_lab.cli", *argv, *flags],
            cwd=checkout, env=env, capture_output=True, text=True,
        )
        log = (
            f"exit: {proc.returncode}\n--- stdout\n{proc.stdout}"
            f"--- stderr\n{proc.stderr}"
        )
        (outdir / f"{name}.log").write_text(normalise(log, checkout, outdir))
        for path in written.values():
            if path.exists():
                path.write_text(normalise(path.read_text(), checkout, outdir))
        print(f"{name}: exit {proc.returncode}", flush=True)
    print(f"{len(todo)} commands, {len(list(outdir.iterdir()))} files in {outdir}")


def pick_facts(doc):
    """The FACT_KEYS entries of a report document, nested as in it; a
    property check also gets its ``passed``."""
    if isinstance(doc, list):
        picked = [pick_facts(item) for item in doc]
        return picked if any(picked) else None
    if not isinstance(doc, dict):
        return None
    out = {}
    for key, value in doc.items():
        sub = value if key in FACT_KEYS else pick_facts(value)
        if key in FACT_KEYS or sub:
            out[key] = sub
    if "violations" in doc:
        out["passed"] = doc["violations"] == 0
    return out


def command_facts(name, argv, files, outdir):
    """Run one command through ``cli.main`` in this process, with the
    checkout as working directory and ``monotone_lab`` importable, and
    return its facts."""
    from monotone_lab import cli

    written = {flag: Path(outdir) / f"{name}.{suffix}" for flag, suffix in files.items()}
    flags = [arg for flag, path in written.items() for arg in (flag, str(path))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([*argv, *flags])
        except SystemExit as exc:  # argparse after --help
            code = exc.code
    facts = {"exit": code, "stderr": err.getvalue()}
    if "--help" in argv:
        facts["stdout"] = out.getvalue()
    for path in written.values():
        if not path.exists():
            continue
        if path.suffix == ".json":
            facts["json"] = pick_facts(json.loads(path.read_text()))
        elif path.suffix == ".norm":
            facts["norm"] = [float(line.split()[1]) for line in path.read_text().splitlines()[1:]]
    return facts


def fact_mismatches(want, got, where=""):
    """Where ``got`` differs from ``want``: floats beyond REL (ABS at
    roundoff), anything else at all."""
    if isinstance(want, float) or isinstance(got, float):
        numbers = type(want) in (int, float) and type(got) in (int, float)  # no bools
        if numbers and math.isclose(want, got, rel_tol=REL, abs_tol=ABS):
            return []
        return [f"{where}: {got!r}, recorded {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        return [m for key in want for m in fact_mismatches(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [m for i, (a, b) in enumerate(zip(want, got))
                for m in fact_mismatches(a, b, f"{where}[{i}]")]
    return [] if want == got else [f"{where}: {got!r}, recorded {want!r}"]


def golden_commands(checkout):
    return [cmd for cmd in commands(checkout) if cmd[0] not in SLOW]


def write_golden():
    checkout = GOLDEN.parents[2]
    sys.path.insert(0, str(checkout / "src"))
    os.chdir(checkout)
    os.environ["COLUMNS"] = "80"
    records = {}
    with tempfile.TemporaryDirectory() as outdir:
        for name, argv, files in golden_commands(checkout):
            records[name] = {"argv": argv, "files": files,
                             "facts": command_facts(name, argv, files, outdir)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} commands recorded in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--golden"]:
        write_golden()
    elif len(sys.argv) != 3:
        raise SystemExit(__doc__)
    else:
        run(sys.argv[1], sys.argv[2])
