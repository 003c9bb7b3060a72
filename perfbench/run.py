"""Benchmark of casimir-lab's verify workloads.

    python3 perfbench/run.py --workload {euler,transport,chain,rattleback}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; casimir_lab is imported from its
``src/`` directory.  Every measurement happens in a fresh single-threaded
worker process (``perfbench/worker.py``).  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are details for a human reader.

Workloads (all at grid n = 32, inputs drawn from ``--seed``):

* euler       ``run_suite("lie-poisson")``: Euler RK4 with per-step
              energy/helicity diagnostics does nearly all the work.
* transport   ``run_suite("godbillon-vey")``: 1-form transport (Lie
              derivative right-hand side) does most of the work.
* chain       fresh scaled, gauge-shifted graph foliations, each through
              from_alpha, gauge_shift, godbillon_vey, xi_generator and
              gv_variation, residuals checked against the godbillon-vey
              suite's tolerances: one-shot foliation work, no time stepping.
* rattleback  ``run_suite("rattleback")``: interpreted RK4/RK45 loops, no FFT.

With ``--trace 0`` the metrics are end to end, measured untraced:

* wall_s       median wall time of one unit (a suite run, or one chain
               member), normalized to the machine's speed (speedref.py):
               the seconds a unit takes where one reference pass takes
               speedref.REF_NOMINAL_S.  On a shared 2-vCPU Xeon VM the
               speed of a core drifted by 30-60 % within a minute, which
               raw times cannot resolve; normalized ones moved by about
               5 %.  euler and transport units outlast the run length, so
               those runs time one unit.  The raw median, the highest
               percentile with ten samples beyond it and the sample count
               are printed in the detail lines.
* setup_s      median over SETUP_REPEATS fresh interpreters of the time to
               import casimir_lab, build the inputs and make the first call
               into each layer the workload uses, normalized by reference
               passes timed right after it
* peak_rss_mb  peak resident memory of the timed worker (a fresh process,
               since ru_maxrss is a lifetime high-water mark)

With ``--trace 1`` one worker runs a fixed number of units untraced, then the
same units with every layer's public functions wrapped in spans (see
``tracing.py``), and reports per-layer metrics; counts repeat exactly.
``fft.calls`` counts calls at the public numpy.fft/scipy.fft entry points,
not internal 1-D pocketfft passes; ``fft.points_computed`` is input
elements times axes transformed.  Both are computed counts: an n = 32 Form1
is 0.8 MB and fits in L2, so no bandwidth is claimed.  ``failed_frac`` is
failed or missing checks over checks attempted (25 per lie-poisson report,
36 per godbillon-vey, 15 per rattleback, 15 per chain member).

In both modes every unit's checks are counted into ``attempted`` and
``failed``; a failing unit does not stop the timing.  ``correct`` also
requires, when tracing, byte-identical outputs with and without the tracer
and that every span the workload must fire did fire.  Spans and a details
file go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("euler", "transport", "chain", "rattleback")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one single-threaded process: no BLAS or OpenMP thread pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def call_worker(mode, args, deadline):
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def machine_facts():
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                 if ln.startswith("model name")), None)
    except OSError:
        facts["cpu"] = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


def high_percentile(samples):
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least 10 samples beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(samples) * (1 - p / 100) >= 10:
            return p, percentile(samples, p)
    return None, None


def measure(args, deadline):
    """Return (correct, attempted, failed, metrics, details)."""
    if args.trace:
        res = call_worker("traced", args, deadline)
        correct = (res["failed"] == 0 and res["identical_records"]
                   and not res["missing_spans"])
        details = {k: res[k] for k in ("facts", "identical_records", "missing_spans",
                                       "top_spans", "layer_self_share", "fft_by_span")}
        return correct, res["attempted"], res["failed"], res["metrics"], details

    setups = [call_worker("setup", args, deadline) for _ in range(SETUP_REPEATS)]
    res = call_worker("timed", args, deadline)
    samples = res["samples"]
    p, p_value = high_percentile(samples)
    metrics = {
        "wall_s": {"value": statistics.median(samples), "unit": "s"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
    }
    details = {"facts": res["facts"], "wall_samples": len(samples),
               "wall_high_percentile": p, "wall_high_percentile_s": p_value,
               "wall_min_s": min(samples), "wall_max_s": max(samples),
               "wall_raw_median_s": statistics.median(res["raw_samples"]),
               "speed_ref_samples": res["ref_samples"],
               "setup_samples_s": [s["setup_s"] for s in setups],
               "setup_raw_samples_s": [s["setup_raw_s"] for s in setups],
               "worst_tol_ratio": res["worst_tol_ratio"]}
    return res["failed"] == 0, res["attempted"], res["failed"], metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "casimir_lab" / "__init__.py").is_file():
        print(f"casimir_lab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        correct, attempted, failed, metrics, details = measure(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    details["machine"] = machine_facts()
    details["failed_frac_base"] = f"{failed} failed of {attempted} checks attempted"
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"details-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "correct": correct, "metrics": metrics,
                   "details": details}, fh, indent=1)
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
