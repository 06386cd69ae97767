"""Benchmark of the flagbochner request path.

Usage:
    python3 bench/run.py --workload {broad,deep,numeric} --seed N \\
        --seconds S --trace {0,1} [--smoke]

One client sends the workload's requests one after another (a closed loop
on one thread) through ``flagbochner.cli.run_case`` and
``run_numeric_check``, the functions the command line uses, and checks
every response against the paper's classification rule and a golden digest.
Each request starts from empty engine caches.  Passes over the workload
repeat while another one fits in --seconds; at least one always runs.
Times are scaled to reference host speed (calibrate.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics,
taken from one untraced and one traced pass.  Run from the repository root;
the engine is imported from ./src.  Exit codes: 0 every response correct,
1 some response wrong (the result is still printed), 2 the benchmark could
not run (nothing printed).
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# fresh interpreters measured for setup_s, after one unmeasured warm-up that
# leaves the bytecode cache and the page cache the same in every run
SETUP_REPEATS = 5
# case_tail_s leaves this many requests of the pool beyond it
TAIL_BEYOND = 10
SPAN_DIR = ROOT / ".bench_out"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_engine() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import flagbochner
    except ImportError as err:
        raise BenchError(f"cannot import flagbochner from ./src: {err}")
    where = Path(flagbochner.__file__).resolve().parent
    if where != ROOT / "src" / "flagbochner":
        raise BenchError(f"flagbochner was imported from {where}, not ./src")


class Tally:
    """Attempted and failed requests; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, request, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {request.key}: {error}", file=sys.stderr)


class Pass:
    """One pass: per request its latency and the factor taking it to
    reference speed (calibrate.Meter), the engine's cache statistics summed
    over requests, and with tracing, the latency no span accounts for and
    the benchmark's own work inside spans."""

    def __init__(self):
        self.latencies = []
        self.factors = []
        self.cache_stats = collections.Counter()
        self.unaccounted = []
        self.instrument = []

    def scaled(self) -> list[float]:
        return [t * k for t, k in zip(self.latencies, self.factors)]


def _engine_caches() -> list:
    from spans import engine_modules

    found = {}
    for mod in engine_modules():
        for val in vars(mod).values():
            if hasattr(val, "cache_clear"):
                found[id(val)] = val
    return list(found.values())


def measure_setup(workload: str, repeats: int, golden, tally) -> float:
    """Median set-up time over fresh interpreters; see probe.py."""
    import workloads

    request = workloads.first_request(workload)
    cmd = [sys.executable, str(BENCH / "probe.py"), workload]
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        out = json.loads(proc.stdout.splitlines()[-1])
        if i == 0:
            continue
        times.append(out["setup_s"])
        error = out["error"]
        if error is None:
            error = workloads.check(request, out["doc"], golden)
        tally.record(request, error)
    return statistics.median(times)


def run_pass(requests, golden, tally, caches, tracer=None) -> Pass:
    """One pass over the requests, each from empty engine caches and a
    collected heap, so its cost does not depend on the order; a CLI user
    pays the same, one request per process."""
    import workloads

    out = Pass()
    meter = calibrate.Meter(tracer.exclude if tracer is not None else None)
    for i, request in enumerate(requests):
        for fn in caches:
            fn.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.request = i
            mark = tracer.mark()
        try:
            with meter:
                doc = request.execute()
        except Exception as err:  # every failure counts; none is retried
            doc, error = None, f"{type(err).__name__}: {err}"
        out.latencies.append(meter.latency)
        out.factors.append(meter.factor)
        for fn in caches:
            info = fn.cache_info()
            out.cache_stats[f"{fn.__module__}.{fn.__name__}.hits"] += info.hits
            out.cache_stats[f"{fn.__module__}.{fn.__name__}.misses"] += info.misses
        if tracer is not None:
            gross = meter.latency + meter.spent
            out.unaccounted.append(gross - tracer.accounted_s(mark))
            out.instrument.append(tracer.instrument_s - mark[1])
        if doc is not None:
            error = workloads.check(request, doc, golden)
        tally.record(request, error)
    return out


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  One noisy
    request moves it far less than it moves a single order statistic,
    which matters where the pool has a gap in its latencies."""
    ranked = sorted(values)
    n = len(ranked)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 16  # midpoint rule inside each 1/n interval

    def density(x: float) -> float:
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [
        sum(density((i + (j + 0.5) / steps) / n) for j in range(steps))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ranked)) / sum(weights)


def tail_level(n: int) -> float:
    """The quantile whose order statistic in a pool of n leaves
    TAIL_BEYOND requests beyond it; the top one for a smaller pool."""
    return (n - TAIL_BEYOND) / (n + 1) if n > TAIL_BEYOND else n / (n + 1)


def end_to_end(workload, requests, seconds, golden, tally, smoke) -> dict:
    """Set-up time, then passes while another one fits in `seconds`.

    wall_s, case_p50_s and case_tail_s are computed for each pass from its
    latencies at reference speed, and reported as their median over the
    passes; a pass count that varies with host speed thus biases none of
    them.  The tail is at the highest percentile with TAIL_BEYOND requests
    beyond it: about p96 on broad, p84 on numeric and p70 on deep.
    """
    caches = _engine_caches()
    setup_s = measure_setup(workload, 1 if smoke else SETUP_REPEATS, golden, tally)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(requests, golden, tally, caches))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    level = tail_level(len(requests))

    def median_over_passes(stat):
        return statistics.median(stat(p.scaled()) for p in passes)

    raw = statistics.median(sum(p.latencies) for p in passes)
    print(
        f"{workload}: {len(passes)} pass(es) of {len(requests)} requests, "
        f"median raw pass {raw:.3f} s; case_tail_s is p{100 * level:.1f}; "
        f"failed {tally.failed} of {tally.attempted}",
        file=sys.stderr,
    )
    return {
        "setup_s": setup_s,
        "wall_s": median_over_passes(sum),
        "case_p50_s": median_over_passes(lambda xs: quantile(xs, 0.5)),
        "case_tail_s": median_over_passes(lambda xs: quantile(xs, level)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }


def per_layer(workload, seed, requests, golden, tally) -> dict:
    """One untraced and one traced pass, times at reference speed."""
    from spans import Tracer

    caches = _engine_caches()
    untraced = sum(run_pass(requests, golden, tally, caches).scaled())
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(requests, golden, tally, caches, tracer)
    finally:
        tracer.uninstall()
    hits = traced.cache_stats["flagbochner.matrices.build_Z.hits"]
    lookups = hits + traced.cache_stats["flagbochner.matrices.build_Z.misses"]
    _write_spans(tracer, workload, seed)
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}", file=sys.stderr)

    calls, s, total = tracer.layer_times(traced.factors)
    n = tracer.counts
    pairs = n["poly.mul.pairs"]
    traced_s = sum(traced.scaled())

    def scaled(values):
        return sum(v * k for v, k in zip(values, traced.factors))

    return {
        "matrices.build_Z.s": s["matrices.build_Z"],
        "matrices.build_Z.hit_ratio": hits / lookups if lookups else 0.0,
        "matrices.nilpotency_index.s": s["matrices.nilpotency_index"],
        "expansion.exp_Z.s": s["expansion.exp_Z"],
        "expansion.gram.s": s["expansion.gram"],
        "expansion.diastasis.self_s": s["expansion.diastasis"],
        "expansion.hessian_fd.s": s["expansion.hessian_fd"],
        "expansion.hessian_fd.total_s": total["expansion.hessian_fd"],
        "expansion.eval_numeric.s": s["expansion.eval_numeric"],
        "expansion.eval_numeric.calls": calls["expansion.eval_numeric"],
        "expansion.truncated_value.s": s["expansion.truncated_value"],
        "poly.minor_det.s": s["poly.minor_det"],
        "poly.minor_det.calls": calls["poly.minor_det"],
        "poly.minor_det.out_terms": n["poly.minor_det.out_terms"],
        "poly.log1p_expand.s": s["poly.log1p_expand"],
        "poly.log1p_expand.out_terms": n["poly.log1p_expand.out_terms"],
        "poly.mul.calls": n["poly.mul.calls"],
        "poly.mul.pairs": pairs,
        "poly.mul.kept_ratio": n["poly.mul.kept"] / pairs if pairs else 0.0,
        "poly.peak_terms": tracer.peak_terms,
        "bochner.forbidden_report.s": s["bochner.forbidden_report"],
        "bochner.forbidden.entries": n["bochner.forbidden.entries"],
        "bochner.verdict_from_report.s": s["bochner.verdict_from_report"],
        "feasibility.rref.s": s["feasibility.rref"],
        "feasibility.positive_solution_exists.s":
            s["feasibility.positive_solution_exists"],
        "feasibility.lp.rows": n["feasibility.lp.rows"],
        "lie_core.poincare.s": s["lie_core.poincare"],
        "cli.run_case.self_s": s["cli.run_case"],
        "cli.run_numeric_check.self_s": s["cli.run_numeric_check"],
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced_s - untraced,
        "trace.instrument_s": scaled(traced.instrument),
        "trace.unaccounted_s": scaled(traced.unaccounted),
        "trace.absent_layers": len(tracer.absent),
        "trace.speed_factor": statistics.median(traced.factors),
    }


def _write_spans(tracer, workload: str, seed: int) -> None:
    """Spans of the traced pass, raw times, one JSON array per line:
    [request, span id, parent span id or -1, name, start, end, self]."""
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, golden: dict | None = None) -> dict:
    """Run the workload; returns the object main prints."""
    import workloads

    if golden is None:
        golden = json.loads((BENCH / "golden.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    requests = workloads.requests(workload, seed, smoke)
    # one-time library set-up, such as numpy's linalg, belongs in setup_s;
    # what is alive now is left out of every later garbage collection
    try:
        workloads.first_request(workload).execute()
    except Exception:  # the passes run this request again and count it
        pass
    gc.freeze()
    tally = Tally()
    if trace:
        values = per_layer(workload, seed, requests, golden, tally)
        declared = spec["per_layer"]
    else:
        values = end_to_end(workload, requests, seconds, golden, tally, smoke)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError("computed metrics differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("broad", "deep", "numeric"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pool and one set-up probe, for self-tests")
    args = parser.parse_args(argv)
    try:
        _import_engine()
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
