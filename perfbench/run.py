"""The repository benchmark: one command for every workload and metric.

Run from the repository root::

    python3 perfbench/run.py --workload prove_cold --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py compare PARENT_RECORDS --new CHANGE_RECORDS

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes an untraced run and then a traced one on the serial
backend, and prints the per-layer metrics.  Either way every output is
checked against the known answers in ``perfbench/references.json``; the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``), and the exit code is 1 when a
check failed.  Each invocation writes a run record under
``.perfbench/records/``; ``compare`` diffs two sets of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer, calibrate  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

#: Ratio metrics: layer -> metric suffix for ``ok / calls``.
RATIO_NAMES = {"vcgen.simplify": "discharged_ratio",
               "plan.evaluate": "applicable_ratio",
               "plan.validate": "accepted_ratio"}

# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quantile(values, q: float, steps: int = 4000) -> float:
    """The Harrell-Davis estimate of the ``q``-quantile: a weighted mean
    of the order statistics with Beta((n+1)q, (n+1)(1-q)) weights.  A
    run's latencies cluster by which subprogram an edit touched, and a
    single order statistic jumps across the gaps between clusters; this
    estimate moves smoothly.  The weights come from the Beta density
    integrated on ``steps`` midpoints."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log(1 - t)
            for t in ((k + 0.5) / steps for k in range(steps))]
    peak = max(logs)
    cdf = [0.0]
    for log in logs:
        cdf.append(cdf[-1] + math.exp(log - peak))
    return sum(value * (cdf[(i + 1) * steps // n] - cdf[i * steps // n])
               for i, value in enumerate(ordered)) / cdf[-1]


def median(values) -> float:
    return quantile(values, 0.5)


def tail(values):
    """``(value, percentile, samples)``: the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0, n
    q = (n - 10) / n
    return quantile(values, q), 100.0 * q, n


def end_to_end(m) -> dict:
    """The end-to-end metrics of one untraced run: medians over its units
    and over its latencies."""
    tail_value, tail_pct, samples = tail(m.latencies)
    return {
        "setup_s": (median(m.setup_walls), "s"),
        "wall_s": (median([u.wall for u in m.units]), "s"),
        "vcs_per_s": (median([u.vcs / u.wall for u in m.units]), "1/s"),
        "evals_per_s": (median([u.evals / u.wall for u in m.units]), "1/s"),
        "reverify_p50_ms": (1e3 * median(m.latencies), "ms"),
        "reverify_tail_ms": (1e3 * tail_value, "ms"),
        "edits_per_s": (median([u.requests / u.wall for u in m.units]),
                        "1/s"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }, {"tail_percentile": tail_pct, "samples": samples}


def exec_counters(stats_list) -> dict:
    hits = sum(s["cache_hits"] for s in stats_list)
    keyed = hits + sum(s["cache_misses"] for s in stats_list)
    return {
        "exec.scheduled": (sum(sum(s["obligations"].values())
                               for s in stats_list), "count"),
        "exec.cached": (sum(sum(s["cached"].values())
                            for s in stats_list), "count"),
        "exec.cache_hit_ratio": (hits / keyed if keyed else 0.0, "ratio"),
        "exec.busy_s": (sum(s["busy_seconds"] for s in stats_list), "s"),
        "exec.dispatch_p50_ms": (1e3 * median(
            [s["dispatch_p50_seconds"] for s in stats_list]), "ms"),
        "exec.dispatch_p95_ms": (1e3 * median(
            [s["dispatch_p95_seconds"] for s in stats_list]), "ms"),
        "exec.batched_units": (sum(s["batched"] for s in stats_list),
                               "count"),
        "exec.batch_items": (sum(s["batch_items"] for s in stats_list),
                             "count"),
        "exec.max_queue_depth": (max((s["max_queue_depth"]
                                      for s in stats_list), default=0),
                                 "count"),
        "exec.retries": (sum(s["retries"] for s in stats_list), "count"),
        "exec.timeouts": (sum(s["timeouts"] for s in stats_list), "count"),
        "exec.errors": (sum(s["errors"] for s in stats_list), "count"),
    }


SERVE_EXTRAS = {"serve.queue_ms": "ms", "serve.run_ms": "ms",
                "serve.results_held": "count",
                "serve.telemetry_dump_bytes": "bytes",
                "incr.replayed_vcs": "count", "incr.rechecked_vcs": "count"}


def per_layer(untraced, traced, table, overhead, spans) -> dict:
    metrics = {}
    for layer in LAYERS:
        row = table[layer]
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.total_s"] = (row["total_s"], "s")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        if layer in RATIO_NAMES:
            ratio = row["ok"] / row["calls"] if row["calls"] else 0.0
            metrics[f"{layer}.{RATIO_NAMES[layer]}"] = (ratio, "ratio")
    requests = sum(unit.requests for unit in traced.units)
    for layer in ("lang.parse", "lang.analyze"):
        metrics[f"{layer}.per_request"] = (
            table[layer]["calls"] / requests, "count")
    vcs = sum(unit.vcs for unit in untraced.units)
    metrics["vcgen.simplifier_share"] = (
        untraced.extra.get("simplifier_vcs", 0) / vcs if vcs else 0.0,
        "ratio")
    metrics.update(exec_counters(untraced.exec_stats))
    for name, unit in SERVE_EXTRAS.items():
        metrics[name] = (untraced.extra.get(name, 0), unit)
    metrics["trace.wall_s"] = (traced.measured_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced.measured_s, "s")
    metrics["trace.unattributed_s"] = (table["unattributed"]["self_s"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (spans, "count")
    return metrics


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def git_commit():
    """The checkout's commit when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_benchmark(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not "
              f"from this checkout's src/", file=sys.stderr)
        return 2

    references = json.loads(Path(args.references).read_text())
    reference = references[args.size][args.workload]
    params = SIZES[args.size][args.workload]
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        workload = WORKLOADS[args.workload](params, reference, workdir)
        untraced = workload.run(args.seconds, args.seed, serial=False)
        legs = {"untraced": untraced}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run(args.seconds, args.seed, serial=True,
                                      tracer=tracer)
            finally:
                tracer.uninstall()
            legs["traced"] = traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(leg.attempted for leg in legs.values())
    failures = [f"{name}: {msg}" for name, leg in legs.items()
                for msg in leg.failures]
    failed_frac = len(failures) / attempted
    detail = {}
    if args.trace:
        table = tracer.layer_table(traced.measured_s)
        per_call = calibrate()
        estimate = per_call * tracer.span_count
        # The overhead is the measured traced-minus-untraced wall when
        # both legs ran on the same backend; prove_cold's untraced leg
        # runs on the process backend, so there the per-call cost model
        # stands in for it.
        same_backend = args.workload != "prove_cold"
        overhead = traced.measured_s - untraced.measured_s \
            if same_backend else estimate
        metrics = per_layer(untraced, traced, table, overhead,
                            tracer.span_count)
        metrics["failed_frac"] = (failed_frac, "ratio")
        detail = {"layers": table, "overhead_measured": same_backend,
                  "overhead_estimate_s": estimate,
                  "per_call_cost_s": per_call}
    else:
        metrics, detail = end_to_end(untraced)

    record = {
        "schema": "perfbench-record/v1",
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "params": params, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "commit": git_commit(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "failed_frac": failed_frac,
        "failures": failures, "answers": untraced.answers,
        "detail": detail,
        "runs": {name: {"setup_walls": leg.setup_walls,
                        "units": [vars(unit) for unit in leg.units],
                        "latencies": leg.latencies,
                        "extra": leg.extra}
                 for name, leg in legs.items()},
    }
    records = Path(args.records)
    records.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write_spans(records / f"{stem}.spans.json.gz")

    print_report(args, metrics, detail, failures, attempted)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if not failures else 1


def print_report(args, metrics, detail, failures, attempted) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  (tail = p{detail['tail_percentile']:.1f} of "
              f"{detail['samples']} latencies)")
    else:
        how = "measured" if detail["overhead_measured"] else "estimated"
        print(f"  (overhead {how}; "
              f"per-call cost {detail['per_call_cost_s'] * 1e6:.2f} us)")
    print(f"  known-answer checks: {attempted - len(failures)}/{attempted} "
          f"passed")
    for failure in failures:
        print(f"  FAILED {failure}")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def load_records(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            records.append(json.loads(file.read_text()))
    return records


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def compare(base_paths, new_paths) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_spec = {m["name"]: m
                   for m in spec["end_to_end"] + spec["per_layer"]}
    groups = {}
    for side, paths in (("base", base_paths), ("new", new_paths)):
        for record in load_records(paths):
            for name, entry in record["metrics"].items():
                key = (record["workload"], name)
                groups.setdefault(key, {"base": [], "new": []})[side].append(
                    entry["value"])
    regressed = False
    print(f"{'workload':12s} {'metric':34s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>13s}  verdict")
    for (workload, name), sides in sorted(groups.items()):
        base, new = sides["base"], sides["new"]
        if not base or not new:
            continue
        m = metric_spec.get(name, {})
        bound = m.get("bound")
        lower = m.get("better", "lower") == "lower"
        b, n = statistics.median(base), statistics.median(new)
        change = (n - b) / abs(b) if b else 0.0
        worse = change if lower else -change
        spreads = (spread(base), spread(new))
        if bound is None:
            verdict = "-"
        elif max(spreads) > bound:
            all_better = (max(new) < min(base)) if lower \
                else (min(new) > max(base))
            verdict = "better" if all_better else "unresolved"
        elif worse > bound:
            verdict = "WORSE"
            regressed = True
        elif -worse > bound:
            verdict = "better"
        else:
            verdict = "within bound"
        print(f"{workload:12s} {name:34s} {b:12.6g} {n:12.6g} "
              f"{100 * change:+7.1f}% {100 * spreads[0]:5.1f}/"
              f"{100 * spreads[1]:5.1f}%  {verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="perfbench compare")
        parser.add_argument("base", nargs="+",
                            help="record files or directories (parent)")
        parser.add_argument("--new", nargs="+", required=True,
                            help="record files or directories (change)")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--references", default=str(HERE / "references.json"),
                        help="known answers (default: %(default)s)")
    parser.add_argument("--records", default=str(STATE / "records"),
                        help="where the run record goes "
                             "(default: %(default)s)")
    return run_benchmark(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
