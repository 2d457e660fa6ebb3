"""algprog benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Times are in reference seconds (see calibrate.py): CPU time of this
process (`time.thread_time`), scaled by a fixed computation timed between
items.  The program is single-threaded and CPU-bound; CPU time leaves out
the stretches in which a shared host runs something else on this CPU, and
the scaling takes out the drift of the host's speed.  The loop also runs
for --seconds in reference seconds (at most 1.5 times that in wall time),
so a busy host changes the number of items in a run little.  Each run
first warms up for a second on the same items, untimed.  With --trace 0
the run measures the end-to-end metrics; with --trace 1 it first runs
untraced for half the time, then repeats the same items with per-layer
spans, and reports the per-layer metrics and the tracing overhead.
`--workload all` runs every workload, each in its own process.  The last
line of output is one JSON object; earlier lines explain it.  Exit status 0
means the run completed, whatever the checks found.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402
from tracer import Tracer  # noqa: E402

#: set-up runs at least this many times and for at least this long
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
#: the clock of every reported time: CPU time of the (only) thread
clock = time.thread_time
#: a loop stops after this many times its length in wall time, however
#: little CPU time the host gave it
WALL_CAP = 1.5
WARMUP_S = 1.0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None


def import_algprog():
    """Fresh import of the package from the checkout's src/ (the cost of a
    cold start, less byte-compilation after the first run)."""
    for name in [n for n in sys.modules if n == "algprog" or n.startswith("algprog.")]:
        del sys.modules[name]
    ap = importlib.import_module("algprog")
    importlib.import_module("algprog.cli")
    return ap


def setup(workload: str, seed: int, workdir: Path):
    """Import plus input generation (and stored certificates), repeated;
    returns the last workload built, the median set-up time in reference
    seconds and the CPU time of each set-up."""
    times = []
    cal = Calibration(clock)
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = clock()
        ap = import_algprog()
        built = workloads.WORKLOADS[workload](ap, seed, workdir)
        times.append(clock() - start)
        cal.burst(4)
        gc.collect()  # frees the previous import, so peak RSS is one set-up's
    return ap, built, statistics.median(times) * cal.scale(), times


def documented_errors(ap) -> tuple:
    return (
        ap.radicals.ExprError, ap.polycore.PolyError, ap.defpoly.SamplingError,
        ap.isolation.IsolationError, ap.program.ProgramError, OSError,
    )


def measure(built, ap, seconds: float, max_items: int | None = None, tracer=None,
            whole_passes: bool = True) -> dict:
    """Closed loop: the next item starts when the previous one ends.  Stops
    at the first pass boundary (with `whole_passes`, else at the first item
    boundary) once the items add up to `seconds` reference seconds (or the
    loop has run WALL_CAP times that in wall time), or after `max_items`
    items.  Input preparation, output checks and calibration bursts run
    between items and are not counted as loop time.  Each record has its CPU
    time, its wall time and its time in reference seconds."""
    errors = documented_errors(ap)
    records = []
    items = built.items()
    cal = Calibration(clock)
    cal.burst()
    aside = loop_ref = 0.0
    start = time.perf_counter()
    while True:
        if max_items is not None:
            if len(records) >= max_items:
                break
        elif records and (records[-1]["ends_pass"] or not whole_passes) and (
            loop_ref >= seconds or time.perf_counter() - start - aside >= WALL_CAP * seconds
        ):
            break
        t_prep = time.perf_counter()
        item = next(items)
        # the limit is in reference seconds: CPU time at the current speed
        limit = item.time_limit and item.time_limit / cal.scale(t_prep)
        t0, c0 = time.perf_counter(), clock()
        result, error, cut = None, None, None
        try:
            with workloads.time_limit(limit):
                if tracer:
                    tracer.active = True
                try:
                    result = item.call()
                finally:
                    if tracer:
                        tracer.active = False
        except workloads.TimeLimit:
            error = cut = (f"time limit {item.time_limit} reference s "
                           f"({limit:.3f} s of CPU time) exceeded")
        except errors as exc:
            error = f"documented error {type(exc).__name__}: {exc}"
        except Exception as exc:  # a crash fails this item; the run goes on
            error = f"unexpected {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        c1, t1 = clock(), time.perf_counter()
        loop_ref += (c1 - c0) * cal.scale(t0)
        if error:
            status, terms, detail = workloads.CUT if cut else workloads.FAILED, None, error
        else:
            try:
                status, terms, detail = item.check(result)
            except Exception as exc:  # an output the oracle cannot read is wrong
                status, terms = workloads.INCORRECT, None
                detail = f"oracle could not read the output: {type(exc).__name__}: {exc}"
        cal.maybe()
        records.append({
            "label": item.label, "ends_pass": item.ends_pass, "at": t0,
            "cpu_seconds": c1 - c0, "wall_seconds": t1 - t0,
            "completed": not error, "status": status, "terms": terms, "detail": detail,
        })
        aside += (t0 - t_prep) + (time.perf_counter() - t1)
    cal.burst()
    for r in records:
        r["seconds"] = r["cpu_seconds"] * cal.scale(r["at"])
    return {
        "records": records,
        "wall": time.perf_counter() - start - aside,
    }


def end_to_end(run: dict) -> dict:
    recs = run["records"]
    times = [r["seconds"] for r in recs]
    completed = sum(1 for r in recs if r["completed"])
    failed = sum(1 for r in recs if r["status"] in (workloads.FAILED, workloads.INCORRECT))
    cut = sum(1 for r in recs if r["status"] == workloads.CUT)
    terms = [r["terms"] for r in recs if r["terms"] is not None]
    pct, tail = percentile_tail(times)
    return {
        "items_per_s": completed / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail,
        "tail_percentile": pct,
        "failed_share": (failed + cut) / len(recs),
        "output_terms": interquartile_mean(terms),
        "output_terms_total": sum(terms),
        "attempted": len(recs),
        "completed": completed,
        "failed": failed,
        "cut": cut,
        "incorrect": sum(1 for r in recs if r["status"] == workloads.INCORRECT),
        "wall": run["wall"],
        "item_seconds": sum(times),
        "item_cpu_seconds": sum(r["cpu_seconds"] for r in recs),
        "cpu_latency_p50_s": statistics.median(r["cpu_seconds"] for r in recs),
        "wall_items_per_s": completed / run["wall"],
        "wall_latency_p50_s": statistics.median(r["wall_seconds"] for r in recs),
    }


def interquartile_mean(values: list[int]) -> float:
    """Mean of the middle half: moves when most outputs grow or shrink, not
    when a few heavy items start or stop completing within the time limit."""
    s = sorted(values)
    k = len(s) // 4
    middle = s[k:len(s) - k]
    return sum(middle) / len(middle) if middle else 0.0


def percentile_tail(values: list[float], beyond: int = 10) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with at least `beyond`
    samples strictly above its value.  With too few samples, the maximum
    as percentile 100."""
    s = sorted(values)
    n = len(s)
    for q in range(99, 0, -1):
        value = s[max(-(-q * n // 100) - 1, 0)]
        if n - bisect.bisect_right(s, value) >= beyond:
            return q, value
    return 100, s[-1]


def print_end_to_end(tag: str, m: dict, setup_s: float, rss_mb: float) -> None:
    print(f"{tag}items_per_s = {m['items_per_s']:.4f} 1/s "
          f"({m['completed']} of {m['attempted']} items completed in {m['item_seconds']:.2f} "
          f"reference s, {m['item_cpu_seconds']:.2f} s of CPU time; "
          f"{m['wall_items_per_s']:.4f} per second of the loop's {m['wall']:.2f} s wall time)")
    print(f"{tag}latency_p50_s = {m['latency_p50_s']:.6f} s "
          f"(CPU time {m['cpu_latency_p50_s']:.6f} s, wall time {m['wall_latency_p50_s']:.6f} s)")
    print(f"{tag}latency_tail_s = {m['latency_tail_s']:.6f} s "
          f"(p{m['tail_percentile']} of {m['attempted']} samples)")
    print(f"{tag}failed_share = {m['failed_share']:.4f} ratio "
          f"({m['failed'] + m['cut']} of {m['attempted']}: {m['cut']} stopped at the time limit, "
          f"{m['failed']} failed, {m['incorrect']} of them wrong outputs)")
    print(f"{tag}output_terms = {m['output_terms']:.4f} count (interquartile mean per item "
          f"that emits polynomials; {m['output_terms_total']} in total)")
    print(f"{tag}setup_s = {setup_s:.4f} s")
    print(f"{tag}peak_rss_mb = {rss_mb:.2f} MB")


def print_failures(run: dict, limit: int = 40) -> None:
    """Every item stopped at the time limit, then failed items, then items
    that passed with a note."""
    cut = [r for r in run["records"] if r["status"] == workloads.CUT]
    bad = [r for r in run["records"] if r["status"] in (workloads.FAILED, workloads.INCORRECT)]
    noted = [r for r in run["records"] if r["status"] == workloads.OK and r["detail"]]
    for r in cut + (bad + noted)[:limit]:
        print(f"  {r['status']}: {r['label']}: {r['detail']}")
    if len(bad) + len(noted) > limit:
        print(f"  ... {len(bad) + len(noted) - limit} more")


def run_workload(args) -> int:
    loadavg = os.getloadavg()
    if not (ROOT / "src" / "algprog" / "__init__.py").exists():
        print(f"error: no algprog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"loadavg_at_start={loadavg[0]:.2f},{loadavg[1]:.2f},{loadavg[2]:.2f}")
    sys.path.insert(0, str(ROOT / "src"))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ap, built, setup_s, setup_times = setup(args.workload, args.seed, workdir)
        print(f"setup CPU times: {', '.join(f'{t:.4f}' for t in setup_times)} s")
        measure(built, ap, WARMUP_S, whole_passes=False)
        if args.trace:
            return traced(args, ap, built, setup_s)
        run = measure(built, ap, args.seconds)
        m = end_to_end(run)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print_end_to_end("", m, setup_s, rss_mb)
        print_failures(run)
        values = {
            "items_per_s": m["items_per_s"], "latency_p50_s": m["latency_p50_s"],
            "latency_tail_s": m["latency_tail_s"], "output_terms": m["output_terms"],
            "setup_s": setup_s, "peak_rss_mb": rss_mb,
        }
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in SPEC["end_to_end"]}
        result(m["incorrect"] == 0, m["attempted"], m["failed"], metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(args, ap, built, setup_s: float) -> int:
    plain = measure(built, ap, args.seconds / 2)
    tracer = Tracer()
    tracer.install(ap)
    try:
        spans = measure(built, ap, 0, max_items=len(plain["records"]), tracer=tracer)
    finally:
        tracer.uninstall()
    a, b = end_to_end(plain), end_to_end(spans)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print_end_to_end("untraced ", a, setup_s, rss_mb)
    print_end_to_end("traced   ", b, setup_s, rss_mb)
    print_failures(spans)
    layer = tracer.metrics()
    covered = tracer.total_self_s()
    layer["trace.items"] = b["attempted"]
    layer["trace.item_s"] = b["item_cpu_seconds"]
    layer["trace.uncovered_share"] = 1 - covered / b["item_cpu_seconds"]
    layer["trace.overhead_share"] = b["item_cpu_seconds"] / a["item_cpu_seconds"] - 1
    layer["trace.time_limit_hits"] = b["cut"]
    for name, value in sorted(layer.items()):
        if value:
            print(f"  {name} = {value:.6g}")
    metrics = {
        e["name"]: {"value": layer.get(e["name"], 0), "unit": e["unit"]} for e in SPEC["per_layer"]
    }
    result(a["incorrect"] + b["incorrect"] == 0, a["attempted"] + b["attempted"],
           a["failed"] + b["failed"], metrics)
    return 0


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None:
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
