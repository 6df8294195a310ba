"""Closed-loop benchmark of the conormal pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  One
process, one thread: a single caller runs the items of a workload back to
back.  The items of a run, the pass, are a fixed list derived from the seed
(see workloads.py); the loop runs them over and over until each has run
MIN_ROUNDS times and --seconds have passed.  Times are normalised by the
host's speed, sampled throughout by reference.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each item of the
pass untraced and then with every layer boundary traced (spans.py),
checks that both give the same report bytes, and prints the per-layer
metrics.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_ROUNDS = 3


def _use_checkout_source():
    """Put the checkout's src/ first on the path.  No bytecode is written, so
    every import compiles the program from source, as in a fresh checkout."""
    src = ROOT / "src"
    if not (src / "conormal" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure at {src / 'conormal'}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))


def set_up(workload, seed, log):
    """One set-up: import the program and the workload definitions afresh,
    derive the pass and run the warm-up item (a failure there is logged; the
    items of the loop count failures).  Returns the workloads module."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("conormal", "workloads")]:
        del sys.modules[name]
    workloads = importlib.import_module("workloads")
    if workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[workload]
    spec.make_pass(seed)
    run_item(spec.warmup, log)
    return workloads


def run_item(item, log):
    """Run one item; returns (seconds, report text, violated checks).  Only
    the program call is timed; an exception counts as a violated check."""
    label, (call, check), args = item
    t0 = time.perf_counter()
    try:
        out = call(*args)
    except Exception as exc:  # a failed item is counted, the loop goes on
        seconds = time.perf_counter() - t0
        log(f"FAILED {label} {args}:\n{traceback.format_exc()}")
        return seconds, f"{label}: {type(exc).__name__}: {exc}\n", ["exception"]
    seconds = time.perf_counter() - t0
    text, problems = check(out, *args)
    if problems:
        log(f"FAILED {label} {args}: {', '.join(problems)}")
    return seconds, text, problems


def digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def measure(items, seconds, sampler, log):
    """The items of the pass over and over, always in the same order, until
    every item has run MIN_ROUNDS times and `seconds` of wall time have
    passed.  Every call is checked, and a repeated call must give the first
    call's report bytes.  Returns (the calls of each item as (start, end,
    seconds without the sampler), failed calls, report hash)."""
    calls = [[] for _ in items]
    reports = [None] * len(items)
    failed = 0
    start = time.perf_counter()
    for k in itertools.count():
        i = k % len(items)
        if k >= MIN_ROUNDS * len(items) and time.perf_counter() - start >= seconds:
            break
        spent = sampler.spent
        t0 = time.perf_counter()
        dt, text, problems = run_item(items[i], log)
        calls[i].append((t0, t0 + dt, dt - (sampler.spent - spent)))
        if reports[i] is None:
            reports[i] = text
        elif text != reports[i]:
            problems = problems + ["report differs from the first call"]
            log(f"FAILED {items[i][0]}: call {len(calls[i])} report differs from the first call")
        failed += bool(problems)
    return calls, failed, digest(reports)


def replay(items, tracer, log):
    """Each item of the first pass untraced, then at once traced, so that
    both see the same host speed.  Returns (items attempted, items failed,
    per-layer metrics)."""
    failed = 0
    untraced_s = traced_s = 0.0
    reports = []
    for item in items:
        seconds, text, problems = run_item(item, log)
        untraced_s += seconds
        with tracer.patched():
            traced_seconds, traced_text, traced_problems = tracer.call(f"item {item[0]}", run_item, item, log)
        traced_s += traced_seconds
        failed += bool(problems) + bool(traced_problems)
        if traced_text != text:
            failed += 1
            log(f"FAILED {item[0]}: traced report bytes differ from the untraced ones")
        reports.append(text)
    orphans = tracer.orphan_buchberger_spans()
    if orphans:
        failed += orphans
        log(f"FAILED {orphans} buchberger spans without a parent")
    metrics = tracer.per_layer()
    metrics["trace_overhead_s"] = traced_s - untraced_s
    log(f"spans: {len(tracer.spans)}")
    log(f"untraced pass: {untraced_s:.4f} s, traced pass: {traced_s:.4f} s")
    log(f"report_sha256: {digest(reports)}")
    return 2 * len(items), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _use_checkout_source()

    def log(line):
        print(line, flush=True)

    log(f"workload: {args.workload} seed: {args.seed} seconds: {args.seconds} trace: {args.trace}")
    sampler = reference.Sampler()
    with sampler.running():
        setups = []
        for _ in range(SETUP_REPEATS):
            spent, t0 = sampler.spent, time.perf_counter()
            workloads = set_up(args.workload, args.seed, log)
            t1 = time.perf_counter()
            setups.append((t0, t1, t1 - t0 - (sampler.spent - spent)))
        items = workloads.WORKLOADS[args.workload].make_pass(args.seed)
        if not args.trace:
            calls, failed, sha = measure(items, args.seconds, sampler, log)
    log(f"reference samples: {len(sampler.samples)}, sampler time: {sampler.spent:.4f} s")

    if args.trace:
        attempted, failed, layer = replay(items, spans.Tracer(), log)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER.items()}
    else:
        attempted = sum(map(len, calls))
        wall = [statistics.median(dt for _, _, dt in c) for c in calls]
        item_s = [statistics.median(map(sampler.normalised, c)) for c in calls]
        log(f"items: {len(calls)} calls: {attempted} timed: {sum(dt for c in calls for _, _, dt in c):.4f} s")
        log(f"wall clock, median call of each item: items_per_s {len(wall) / sum(wall):.4f} "
            f"item_s.p50 {statistics.median(wall):.4f} item_s.max {max(wall):.4f} "
            f"setup_s {statistics.median(dt for _, _, dt in setups):.4f}")
        for item, c in zip(items, calls):
            log(f"item {item[0]}: normalised {' '.join(f'{sampler.normalised(x):.4f}' for x in c)}")
        log(f"failed_share: {failed / attempted}")
        log(f"report_sha256: {sha}")
        values = {
            "norm.items_per_s": (len(item_s) / sum(item_s), "1/s"),
            "norm.item_s.p50": (statistics.median(item_s), "s"),
            "norm.item_s.max": (max(item_s), "s"),
            "setup_s": (statistics.median(map(sampler.normalised, setups)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    for name, m in metrics.items():
        log(f"metric {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
