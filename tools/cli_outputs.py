"""Record what a fixed set of CLI commands print and write, for diffing.

    python3 tools/cli_outputs.py CHECKOUT OUTDIR

Runs 54 ``monotone-lab`` commands against the package in ``CHECKOUT/src``
and the configs in ``CHECKOUT/configs``, one process each and one after
another, with ``CHECKOUT`` as the working directory:

- for each shipped config: ``prevalence --samples 40`` (JSON and CSV),
  ``validate --report-only``, ``classify --x0 smooth:3`` and
  ``probe-omega --x0 zero``;
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
"""

import os
import re
import subprocess
import sys
from pathlib import Path

_WALL_TIME = re.compile(r'("wall_time":\s*)[^,\n}]+')
SUBCOMMANDS = (
    "validate", "simulate", "classify", "prevalence", "probe-line",
    "probe-omega", "symmetry",
)


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


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    run(sys.argv[1], sys.argv[2])
