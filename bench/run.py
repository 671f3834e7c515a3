"""Closed-loop benchmark of the localgraphs package.

    python3 bench/run.py --workload surgery --seed 1 --seconds 30 --trace 0

One caller in one process, with no threads, runs a workload's operations back
to back until their summed calibrated latency reaches ``--seconds``.
Operation inputs come from ``--seed``; the package receives only those
inputs.  Every output is checked outside the timed region, and a failed
check exits with status 1 before any result is printed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation twice, back to back, first untraced and then through the wrappers
in ``tracing.py``, until the untraced calibrated time reaches half of
``--seconds``; it prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON object describing the run.

Reported times are calibrated: a fixed reference kernel is timed after every
operation, outside the timed region, and each latency is scaled to a machine
on which the kernel takes ``REFERENCE_S``.  This cancels the drift in speed
of a shared machine; the raw wall times are printed as well.  The run's
budget is in calibrated seconds too, so a seed runs nearly the same
operations whatever the machine's speed; raw time is capped at
``RAW_CAP`` times the budget.

The package is imported from ``src/`` next to this directory, never from an
installed copy.  See README.md here for why the workloads are what they are.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("surgery", "local-stats", "sampling")
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Operations generated during set-up; later ones are generated on demand,
#: outside the timed region.
POOL = 32
#: Minimum number of operations beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Reported times are calibrated: wall times scaled to a machine on which
#: reference_seconds() takes exactly REFERENCE_S (see README.md).
REFERENCE_S = 0.005
#: A run stops when its raw summed latency reaches RAW_CAP times the budget,
#: even if the calibrated sum has not, so a slow period cannot stretch it.
RAW_CAP = 1.3
#: An operation's scale is the median of the reference samples within
#: REFERENCE_WINDOW operations of it: three before it and three after.
REFERENCE_WINDOW = 2

IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import localgraphs
from localgraphs import canonical, colored, graphs, lp_distance, measures, samplers, surgery, transport
elapsed = time.perf_counter() - t0
root = localgraphs.__file__
print(elapsed if root.startswith(sys.argv[1]) else -1.0)
"""


def fail(message: str, code: int):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"cannot import localgraphs from {SRC.name}/:\n{proc.stderr.strip()}", 3)
    elapsed = float(proc.stdout.strip())
    if elapsed < 0:
        fail("localgraphs was imported from outside this checkout", 3)
    return elapsed


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "localgraphs").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python kernel of tuple, dict, string and
    integer work, the kind of work the package does."""
    t0 = perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, str(i * 7919 % 1009))
        counts[key] = counts.get(key, 0) + i
    x = len(sorted(f"{a}.{b}.{v}" for (a, b), v in counts.items()))
    for i in range(20000):
        x = (x * 31 + i) % 1000003
    return perf_counter() - t0


def calibrate(latencies: list[float], refs: list[float]) -> list[float]:
    """Scale latency i by REFERENCE_S over the median reference time in a
    window around it; refs[i] and refs[i + 1] bracket operation i."""
    out = []
    for i, dt in enumerate(latencies):
        window = refs[max(0, i - REFERENCE_WINDOW) : i + REFERENCE_WINDOW + 2]
        out.append(dt * REFERENCE_S / statistics.median(window))
    return out


def setup(workload, seed: int) -> tuple[float, float, list]:
    """Import and generate the first operations, SETUP_REPEATS times.

    Returns the median calibrated and raw set-up times and the generated
    operations; every repeat must generate the same inputs from the seed.
    """
    raw, calibrated, pools = [], [], []
    reference_seconds()  # warm-up
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = perf_counter()
        pool = [workload.make_op(seed, i) for i in range(POOL)]
        raw.append(t_import + perf_counter() - t0)
        ref = statistics.median(reference_seconds() for _ in range(3))
        calibrated.append(raw[-1] * REFERENCE_S / ref)
        pools.append(pool)
    if any(p != pools[0] for p in pools[1:]):
        fail("input generation is not deterministic in the seed", 1)
    return statistics.median(calibrated), statistics.median(raw), pools[0]


def run_op(workload, op, tracer=None) -> tuple:
    """(output, error, seconds) of one operation; a tracer's wrappers are
    installed only while it runs, so checks are never traced."""
    from localgraphs.errors import LocalGraphsError

    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        out, error = workload.run(op), None
    except LocalGraphsError as exc:
        out, error = None, exc
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return out, error, dt


def summarize(workload, i: int, op, out, error) -> tuple:
    """Check an operation's output; exits with status 1 if a check fails."""
    from workloads import CheckFailed

    if error is not None:
        return ("failed", type(error).__name__)
    try:
        return workload.check(op, out)
    except CheckFailed as exc:
        fail(f"output check failed on operation {i}: {exc}", 1)


def run_loop(workload, seed: int, ops: list, budget: float, tracer=None):
    """Run operations until their summed calibrated latency reaches budget
    (or their raw latency RAW_CAP times budget), generating more as needed,
    and check each output outside the timed region.

    With a tracer, each operation runs a second time right after, through the
    wrappers, so both runs see the same machine state; the traced output
    must pass the same checks with the same summary.  A reference sample
    is taken before the first operation and after each one.  Returns
    untraced latencies, failure flags, traced latencies and reference times.
    """
    from workloads import CheckFailed

    latencies, failed, traced, summaries = [], [], [], []
    i = 0
    gc.collect()
    refs = [reference_seconds()]
    elapsed = raw = 0.0
    while elapsed < budget and raw < RAW_CAP * budget:
        if i == len(ops):
            ops.append(workload.make_op(seed, i))
        op = ops[i]
        out, error, dt = run_op(workload, op)
        summary = summarize(workload, i, op, out, error)
        del out
        if tracer is not None:
            traced_out, traced_error, traced_dt = run_op(workload, op, tracer)
            if summarize(workload, i, op, traced_out, traced_error) != summary:
                fail(f"traced operation {i} gave another output than untraced", 1)
            traced.append(traced_dt)
            del traced_out
        latencies.append(dt)
        failed.append(error is not None)
        summaries.append(summary)
        refs.append(reference_seconds())
        raw += dt
        # the reference samples so far; calibrate() also uses later ones
        elapsed += dt * REFERENCE_S / statistics.median(refs[-REFERENCE_WINDOW - 2 :])
        i += 1
    if workload.check_run is not None:
        try:
            workload.check_run(summaries)
        except CheckFailed as exc:
            fail(f"output check failed: {exc}", 1)
    return latencies, failed, traced, refs


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least TAIL_BEYOND
    operations beyond it; the maximum when that percentile would fall below
    the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def timings(latencies: list[float]) -> dict:
    percentile, tail_value = tail(latencies)
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
    }


def end_to_end(
    latencies: list[float], refs: list[float], failures: int, setup: tuple, meta: dict
) -> dict:
    """Calibrated end-to-end metrics; the raw ones go to meta."""
    attempted = len(latencies)
    percentile, _ = tail(latencies)
    setup_s, raw_setup_s = setup
    raw = {name: value for name, (value, _) in timings(latencies).items()}
    meta.update(
        ops=attempted,
        fail_ratio=failures / attempted,
        tail_percentile=percentile,
        reference_ms=1e3 * statistics.median(refs),
        raw={**raw, "setup_s": raw_setup_s},
    )
    print(f"fail_ratio = {failures / attempted:.6g} ratio ({failures} of {attempted} failed)")
    print(f"op_tail_ms is p{percentile:.2f} of {attempted} operations")
    print("raw (uncalibrated): " + ", ".join(f"{k} = {v:.6g}" for k, v in meta["raw"].items()))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **timings(calibrate(latencies, refs)),
        "ok_ratio": (1 - failures / attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(
    tracer, latencies: list[float], traced: list[float], exhausted: int | None, meta: dict
) -> dict:
    import tracing
    from workloads import PROBE_MAX_ATTEMPTS, PROBE_SIZE

    values = tracer.metrics()
    values["trace.overhead_ratio"] = sum(traced) / sum(latencies)
    values["surgery.raise_leaf.exhausted"] = exhausted or 0
    if exhausted is None:
        print("surgery.raise_leaf.exhausted: the probe runs on the surgery workload only")
    else:
        meta["probe"] = {"size": PROBE_SIZE, "max_attempts": PROBE_MAX_ATTEMPTS}
        print(
            f"surgery.raise_leaf.exhausted: {exhausted} of {PROBE_SIZE} depth-2 trees with "
            f"one leaf raised to degree 3 exhausted max_attempts={PROBE_MAX_ATTEMPTS}"
        )
    meta["unavailable"] = tracing.UNAVAILABLE
    for name, reason in tracing.UNAVAILABLE.items():
        print(f"unavailable: {name}: {reason}")
    return {name: (v, tracing.UNITS[name.rsplit(".", 1)[-1]]) for name, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "localgraphs" / "__init__.py").is_file():
        fail(f"no package source under {SRC.name}/localgraphs", 3)
    sys.path.insert(0, str(SRC))
    # imported only now that sys.path points at this checkout's src/
    from workloads import SURGERY_MAX_ATTEMPTS, WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s, raw_setup_s, ops = setup(workload, args.seed)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        # untraced and traced runs of each operation share the time
        latencies, failed, traced, refs = run_loop(
            workload, args.seed, ops, args.seconds / 2, tracer
        )
    else:
        latencies, failed, _, refs = run_loop(workload, args.seed, ops, args.seconds)
    attempted, failures = len(latencies), sum(failed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "surgery_max_attempts": SURGERY_MAX_ATTEMPTS if args.workload == "surgery" else None,
    }
    if args.trace:
        from workloads import CheckFailed

        exhausted = None
        if workload.probe is not None:
            try:  # untraced and outside the timed loop
                exhausted = workload.probe(args.seed)
            except CheckFailed as exc:
                fail(f"output check failed: {exc}", 1)
        values = per_layer(tracer, latencies, traced, exhausted, meta)
    else:
        values = end_to_end(latencies, refs, failures, (setup_s, raw_setup_s), meta)
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {"correct": True, "attempted": attempted, "failed": failures, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
