"""One benchmark pass in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py {setup,timed,traced} --workload W --seed N [--seconds S]

Prints one JSON object as the last line of stdout.

* setup   import casimir_lab, build the workload's inputs and make the first
          call into each layer it uses; report the time that took, raw and
          normalized by reference passes timed right after (speedref.py).
* timed   after that warm-up, run units until ``--seconds`` have passed,
          sampling the machine's speed (speedref.py); report each unit's
          wall time raw and normalized, the checks and the peak RSS.
* traced  run TRACE_UNITS units untraced, then the same units under the
          span tracer, then (if rattleback.integrate fired) one unit under
          tracemalloc; report the per-layer metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REF_PASSES = 15


class Tally:
    """Checks attempted and failed, and the worst value/tolerance ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_ratio = 0.0

    def add(self, checks):
        for _, value, tol, passed in checks:
            self.attempted += 1
            self.failed += not passed
            if value is not None and tol and math.isfinite(value):
                self.worst_ratio = max(self.worst_ratio, value / tol)

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "worst_tol_ratio": self.worst_ratio}


def load(name, seed):
    import casimir_lab
    if Path(casimir_lab.__file__).resolve().parent != ROOT / "src" / "casimir_lab":
        raise SystemExit(f"casimir_lab imported from {casimir_lab.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads
    return workloads, workloads.WORKLOADS[name](seed)


def do_setup(args):
    _, wl = load(args.workload, args.seed)
    wl.warm()
    raw = time.perf_counter() - T_START
    import speedref
    ref = speedref.timed_reference(SETUP_REF_PASSES)
    return {"setup_raw_s": raw, "setup_s": raw * speedref.REF_NOMINAL_S / ref}


def do_timed(args):
    import speedref
    _, wl = load(args.workload, args.seed)
    wl.warm()
    tally, spans = Tally(), []
    clock = time.perf_counter
    with speedref.SpeedSampler() as sampler:
        t_loop = clock()
        i = 1
        while True:
            prepared = wl.prepare(i)
            t0 = clock()
            checks, _ = wl.run(prepared)
            spans.append((t0, clock()))
            tally.add(checks)
            i += 1
            if clock() - t_loop >= args.seconds:
                break
    times = sampler.times(spans)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"samples": [norm for _, norm in times], "raw_samples": [raw for raw, _ in times],
            "ref_samples": len(sampler.starts), "peak_rss_mb": peak_kib / 1024.0,
            "facts": software_facts(), **tally.as_dict()}


def run_pass(wl, inputs, tally, tracer=None):
    """Run the units on ``inputs``; return (per-unit wall seconds, output records)."""
    records, walls = [], []
    for i, prepared in enumerate(inputs, start=1):
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        checks, record = wl.run(prepared)
        walls.append(time.perf_counter() - t0)
        tally.add(checks)
        records.append(record)
    return walls, records


def do_traced(args):
    import tracing
    workloads, wl = load(args.workload, args.seed)
    wl.warm()
    inputs = [wl.prepare(i) for i in range(1, workloads.TRACE_UNITS[args.workload] + 1)]
    tally = Tally()
    wall_plain, records_plain = run_pass(wl, inputs, tally)
    with tracing.Tracer() as tracer:
        wall_traced, records_traced = run_pass(wl, inputs, tally, tracer)
    spans = tracer.spans
    summary = tracing.summarize(spans)

    alloc_peak = 0.0
    if "rattleback.integrate" in summary:
        import casimir_lab.rattleback as rb
        with tracing.AllocPeak(rb, "integrate") as alloc:
            run_pass(wl, inputs[:1], Tally())
        alloc_peak = alloc.peak_bytes / 2**20

    missing = [s for s in workloads.REQUIRED_SPANS[args.workload] if s not in summary]
    metrics = layer_metrics(summary, spans, tracer, tally, wall_plain, wall_traced, alloc_peak)
    traced_s = sum(wall_traced)
    shares = {name: s["total_s"] / traced_s for name, s in summary.items()}
    layer_self = {k: v / traced_s for k, v in tracing.layer_self_times(summary).items()}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{args.workload}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "run", "raised",
                              "steps", "fft_calls", "fft_points_computed"],
                   "spans": spans}, fh)
    return {
        "metrics": metrics,
        "missing_spans": missing,
        "identical_records": records_plain == records_traced,
        "top_spans": sorted(shares.items(), key=lambda kv: -kv[1])[:12],
        "layer_self_share": sorted(layer_self.items(), key=lambda kv: -kv[1]),
        "fft_by_span": sorted(((n, s["fft_calls"], s["fft_points"])
                               for n, s in summary.items() if s["fft_calls"]),
                              key=lambda t: -t[1]),
        "facts": software_facts(),
        **tally.as_dict(),
    }


def layer_metrics(summary, spans, tracer, tally, wall_plain, wall_traced, alloc_peak_mb):
    import tracing

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    calls, total = "count", "s"
    m = {}
    for name, keys in (
        ("forms3.grid.spectral_derivative", ("calls", "self_s")),
        ("forms3.grid.dealias", ("calls", "self_s")),
        ("forms3.calculus.leray_project", ("calls", "self_s")),
        ("forms3.calculus.d", ("calls", "total_s")),
        ("forms3.calculus.wedge", ("self_s",)),
        ("forms3.calculus.interior", ("self_s",)),
        ("forms3.calculus.lie_derivative", ("total_s",)),
        ("forms3.transport.transport", ("total_s",)),
        ("fluid.euler_evolve", ("total_s",)),
        ("fluid.euler_rhs", ("calls", "total_s")),
        ("fluid.energy", ("total_s",)),
        ("fluid.helicity", ("total_s",)),
        ("foliation.from_alpha", ("calls", "total_s")),
        ("foliation.gauge_shift", ("total_s",)),
        ("foliation.xi_generator", ("total_s",)),
        ("foliation.gv_casimir_suite", ("total_s",)),
        ("rattleback.integrate", ("calls", "total_s")),
        ("kernels.rk45_loop", ("total_s",)),
        ("forms3.sampling.eval_at", ("total_s",)),
    ):
        for key in keys:
            m[f"{name}.{key}"] = (get(name, key), calls if key == "calls" else total)

    step_ms = [1e3 * d for d in summary.get("forms3.transport.step", {}).get("durations", [])]
    m["forms3.transport.transport.steps"] = (get("forms3.transport.transport", "work"), calls)
    m["forms3.transport.step_ms.p50"] = (tracing.percentile(step_ms, 50), "ms")
    m["forms3.transport.step_ms.p99"] = (tracing.percentile(step_ms, 99), "ms")
    m["fluid.euler_evolve.steps"] = (get("fluid.euler_evolve", "work"), calls)
    attempts, refused = get("foliation.from_alpha", "calls"), get("foliation.from_alpha", "errors")
    m["foliation.from_alpha.failed"] = (refused, calls)
    m["foliation.from_alpha.useful_per_attempt"] = (
        (attempts - refused) / attempts if attempts else 0.0, "ratio")
    rk4_s = get("kernels.rk4_loop", "total_s")
    m["kernels.rk4_loop.steps_per_s"] = (
        get("kernels.rk4_loop", "work") / rk4_s if rk4_s else 0.0, "1/s")
    m["rattleback.integrate.alloc_peak_mb"] = (alloc_peak_mb, "MiB")
    m["fft.calls"] = (tracer.fft_calls, calls)
    m["fft.points_computed"] = (tracer.fft_points, calls)
    m["forms3.randfields.total_s"] = (
        tracing.layer_totals(spans).get("forms3.randfields", 0.0), total)
    m["verify.worst_tol_ratio"] = (tally.worst_ratio, "ratio")
    # per-unit medians, so a slow first unit does not read as negative overhead
    m["trace.overhead_frac"] = (
        statistics.median(wall_traced) / statistics.median(wall_plain) - 1.0, "ratio")
    m["failed_frac"] = (tally.failed / tally.attempted, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def software_facts():
    import numpy
    from casimir_lab import kernels
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"numpy": numpy.__version__, "scipy": scipy_version,
            "using_numba": kernels.USING_NUMBA}


MODES = {"setup": do_setup, "timed": do_timed, "traced": do_traced}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    print(json.dumps(MODES[args.mode](args)))


if __name__ == "__main__":
    main()
