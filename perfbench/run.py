"""monotone-lab benchmark: three workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` and
the systems are built from ``configs/``. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones of
``layers.py``. Provenance, chunk rates and, in traced runs, the spans go to
``.perfbench-out/`` in the checkout.

Other modes: ``--smoke`` shrinks every workload to a tiny size (see
``test_smoke.py``); ``--record-reference`` rewrites ``reference.json`` from
the default seeds; ``--setup-probe`` is the child process that
``setup_s`` times.

See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# One BLAS thread per process, so that Python workers x BLAS threads stays
# within nproc. This must happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The workloads choose their own thread counts.
os.environ.pop("MONOTONE_LAB_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7


class MissingProgram(Exception):
    pass


def import_package():
    """Import monotone_lab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "monotone_lab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        raise MissingProgram(f"no src/monotone_lab and configs/ under {ROOT}")
    sys.path.insert(0, str(src))
    import monotone_lab

    if Path(monotone_lab.__file__).resolve().parent != src / "monotone_lab":
        raise MissingProgram(f"monotone_lab imported from {monotone_lab.__file__}")
    return monotone_lab


# CPUs available to the benchmark, counted before a run pins itself to one.
NPROC = len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# provenance

def _blas_info(np):
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = _openblas_threads(np)
    return info


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monotone_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance():
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas_info(np),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# machine speed

# Calibration speed (steps/s) at which a speed-normalised figure equals the
# raw one.
REFERENCE_SPEED = 80_000.0


def calibrate(steps=3000):
    """Steps per second of a fixed kernel shaped like one period-map step.

    A 32 x 32 mat-vec, a cubic update and a sup-norm guard per step: the
    same interpreter-bound mix of small numpy calls as the program's hot
    loops, but no code of the program. Other tenants of the machine slow
    it by the same factor as the workload. It is timed by the calling
    thread's CPU time, which leaves out time spent waiting for the
    interpreter lock but not a slower machine.
    """
    import numpy as np

    mat = np.full((32, 32), 0.01) + 0.5 * np.eye(32)
    v = np.ones(32)
    start = time.thread_time()
    for _ in range(steps):
        v = mat @ v + 0.01 * (v - v * v * v)
        float(np.max(np.abs(v)))
    return steps / (time.thread_time() - start)


class SpeedSampler:
    """Calibration speed sampled from a background thread during a chunk.

    Every ``interval`` seconds the thread runs a short calibration, so a
    long chunk is normalised by the machine's speed throughout it.
    """

    def __init__(self, interval=0.25, steps=300):
        self.interval = interval
        self.steps = steps
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval):
            self.samples.append(calibrate(self.steps))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# set-up

def setup_probe(workload):
    """Child process: build the experiment and make the first map.

    ``main`` has imported the package by the time this runs.
    """
    import workloads

    workloads.first_map(workloads.load(ROOT, workloads.WORKLOADS[workload].config_file))
    print("ready", flush=True)


def measure_setup(workload, repeats):
    """Median time from starting a fresh process to its ready line.

    Each probe is speed-normalised like a chunk of the timed section.
    """
    times = []
    for _ in range(repeats):
        before = calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        times.append(elapsed * 0.5 * (before + calibrate()) / REFERENCE_SPEED)
    return statistics.median(times)


def setup_layers(wl_cls, repeats):
    """config.build_s and numerics.propagator_build_s, medians over repeats."""
    import workloads
    from monotone_lab import systems

    builds, props = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        exp = workloads.load(ROOT, wl_cls.config_file)
        builds.append(time.perf_counter() - start)
        if not workloads.is_parabolic(exp.system):
            continue
        u = [0.0] * exp.system.n
        start = time.perf_counter()
        systems.apply_map(exp.system, u)
        first = time.perf_counter() - start
        steady = []
        for _ in range(5):
            start = time.perf_counter()
            systems.apply_map(exp.system, u)
            steady.append(time.perf_counter() - start)
        props.append(first - statistics.median(steady))
    return {
        "config.build_s": statistics.median(builds),
        "numerics.propagator_build_s": statistics.median(props) if props else 0.0,
    }


# ---------------------------------------------------------------------------
# runs

def timed_section(wl, seconds):
    """Run chunks until `seconds` have passed.

    A chunk's speed is the mean of the calibration speeds measured just
    before it, just after it and while it ran. Returns the raw chunk
    rates, the chunk speeds and the op counts.
    """
    raw, speeds, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    j = 0
    while True:
        before = calibrate()
        with SpeedSampler() as sampler:
            chunk_start = time.perf_counter()
            try:
                result = wl.run_chunk(j)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            elapsed = time.perf_counter() - chunk_start
        speed = statistics.mean([before, calibrate()] + sampler.samples)
        attempted += wl.chunk_ops
        if result is None:
            failed += wl.chunk_ops
        else:
            raw.append(wl.chunk_ops / elapsed)
            speeds.append(speed)
            failed += wl.check(result)
        j += 1
        if time.perf_counter() - start >= seconds:
            break
    failed = min(failed + wl.finish(), attempted)
    return raw, speeds, attempted, failed


def reference_check(wl):
    """Compare the default-seed outputs with reference.json; list mismatches."""
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][wl.name]
    return wl.compare(wl.reference(), want)


def record_reference():
    import workloads

    doc = {"provenance": provenance(), "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        exp = workloads.load(ROOT, cls.config_file)
        doc["workloads"][name] = cls(exp, 0, False, NPROC).reference()
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"reference written to {REFERENCE}")


def run(args):
    import workloads
    from layers import LAYER_METRICS, UNITS, describe_moves
    from tracing import Tracer

    wl_cls = workloads.WORKLOADS[args.workload]
    threads = NPROC if wl_cls is workloads.PrevalenceDirichlet else 1
    # The workload's threads and the calibrations share one CPU, so the
    # speed they measure is the speed the workload runs at: each CPU of a
    # shared machine drifts on its own. Under the interpreter lock a second
    # CPU bought prevalence_dirichlet little (README.md, re-anchor figures).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup_s = None if args.trace else measure_setup(args.workload, repeats)
    exp = workloads.load(ROOT, wl_cls.config_file)
    workloads.first_map(exp)
    wl = wl_cls(exp, args.seed, args.smoke, threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "threads": threads}

    if args.trace:
        tracer = Tracer()
        layer, attempted, failed, reanchor = wl.traced(tracer)
        failed += wl.finish()
        layer.update(setup_layers(wl_cls, repeats))
        tracer.write(OUT / f"{tag}-spans.jsonl")
        metrics = {}
        for name, unit, _, moves in LAYER_METRICS:
            value = layer.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:40s} {value:<14.6g} {unit:8s} moves {describe_moves(moves)}")
        for key, value in reanchor.items():
            print(f"re-anchor {key}: {value:.4g}")
        record["reanchor"] = reanchor
        unknown = set(layer) - set(UNITS)
        if unknown:
            raise RuntimeError(f"metrics missing from layers.py: {sorted(unknown)}")
    else:
        raw, speeds, attempted, failed = timed_section(wl, args.seconds)
        # each chunk's rate at the reference speed; their median is ops_per_s
        rates = [r * REFERENCE_SPEED / c for r, c in zip(raw, speeds)]
        record.update(raw_chunk_rates=raw, calibration_speeds=speeds,
                      raw_ops_per_s=statistics.median(raw) if raw else 0.0)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }

    problems = reference_check(wl)
    for problem in problems:
        print(f"reference mismatch: {problem}", file=sys.stderr)
    error_rate = failed / attempted
    print(f"error_rate {error_rate:.6g} ({failed} of {attempted} ops failed)")
    record.update(provenance=provenance(), error_rate=error_rate,
                  reference_mismatches=problems, metrics=metrics)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="prevalence_dirichlet")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: one set-up probe, small chunks and op sets")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_package()
        import workloads
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload)
    elif args.record_reference:
        record_reference()
    else:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
