"""rrkit benchmark: seeded, checked CLI workloads in one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the program under test is imported
from `src/rrkit` next to this directory, and each op calls
`rrkit.cli.main(argv)` in-process on text files written during set-up.
One client in one thread sends the next op when the previous one has
answered, cycling through the workload's pool for S seconds. After the
timer stops, every distinct output is checked by the oracles in
`oracle.py`. An op fails if it raises, exits non-zero, gives an output
the oracle rejects, or runs longer than OP_LIMIT_S.

Reported times are rescaled to a reference machine speed measured by
`reference()` between ops (see its docstring); the summary line before
the JSON gives the factor and the wall-clock median latency.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` the rrkit phase functions are
wrapped (see `spans.py`), whole passes over the pool run, and the JSON
holds the per-layer metrics. The spans are written to
`.bench_trace/<workload>-<seed>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OP_LIMIT_S = 10.0  # per-op wall limit; a longer op is stopped and counted as failed
SETUP_ROUNDS = 7  # set-up is repeated and its median reported
REFERENCE_MS = 1.0  # nominal duration of reference(); reported timings are rescaled to it


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(main, argv: list[str]) -> tuple[str, int, str]:
    """One CLI call under the wall limit: (status, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    except OpTimeout:
        return "timeout", -1, ""
    except (Exception, SystemExit) as exc:
        return "error", -1, f"{type(exc).__name__}: {exc}"
    return "ok", rc, out.getvalue()


def reference() -> float:
    """Seconds taken by a fixed integer loop of pure Python bytecode.

    It runs between ops, independent of rrkit and of the seed, and its
    median over a run measures how fast the machine was: timings are
    divided by that median over REFERENCE_MS, which removes the drift in
    speed that other processes on a shared machine cause between runs. Of
    the references tried, this loop tracked rrkit's own slowdowns most
    closely; loops that build sets slowed down more than rrkit did.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def set_up(workloads, name: str, seed: int, workdir: Path, size):
    """One set-up round: import rrkit afresh, generate the pool and write
    its files, then warm up on the smallest op of each kind. Returns the
    CLI module and the pool."""
    for module in [m for m in sys.modules if m == "rrkit" or m.startswith("rrkit.")]:
        del sys.modules[module]
    cli = import_rrkit()
    for path in workdir.iterdir():
        path.unlink()
    pool = workloads.build(name, seed, workdir, size)
    cheapest = {}
    for op in pool:
        if op.kind not in cheapest or op.cost < cheapest[op.kind].cost:
            cheapest[op.kind] = op
    for op in cheapest.values():
        run_op(cli.main, op.argv)
    return cli, pool


def closed_loop(cli, pool, seconds: float, tracer=None):
    """Send ops one after another for `seconds`, timing the reference
    computation after each. Untraced runs stop at the first op that ends
    after the deadline; traced runs stop only at the end of a pass over
    the pool, once another pass would not fit."""
    records = []  # (pool index, latency s, status)
    references = []
    outputs: dict[int, dict[tuple[int, str], int]] = {}
    start = pass_start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        index = i % len(pool)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        status, rc, out = run_op(cli.main, pool[index].argv)
        t1 = time.perf_counter()
        records.append((index, t1 - t0, status))
        references.append(reference())
        if status == "ok":
            seen = outputs.setdefault(index, {})
            seen[(rc, out)] = seen.get((rc, out), 0) + 1
        elif status == "error":
            outputs.setdefault(index, {})[(-1, out)] = 1
        i += 1
        if tracer is None:
            if t1 >= deadline:
                break
        elif index == len(pool) - 1:
            if t1 + (t1 - pass_start) > deadline:
                break
            pass_start = t1
    return records, references, outputs


def check_outputs(pool, outputs, seed: int) -> dict[tuple[int, int, str], str]:
    """Reason for every rejected (pool index, exit code, stdout)."""
    rejected = {}
    for index, seen in sorted(outputs.items()):
        for rc, out in seen:
            rng = random.Random(f"check/{seed}/{index}")
            if rc == -1:
                reason = f"raised {out}"
            else:
                reason = pool[index].check(rc, out, rng)
            if reason is not None:
                op = pool[index]
                rejected[(index, rc, out)] = f"{op.kind} {' '.join(op.argv)}: {reason}"
    return rejected


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The latency with exactly ten samples above it, and its percentile."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_rrkit():
    """`rrkit.cli` from the checkout's `src/`, never an installed copy."""
    src = ROOT / "src"
    if not (src / "rrkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no rrkit sources under {src}; run from a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rrkit.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "rrkit").resolve():
        raise SystemExit(f"error: rrkit was imported from {cli.__file__}, not {src}")
    return cli


def benchmark(args, size=None) -> dict:
    """Run one benchmark and return its result object."""
    import_rrkit()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    size = size or workloads.FULL

    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    tracer = None
    try:
        rounds, setup_references = [], []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            cli, pool = set_up(workloads, args.workload, args.seed, workdir, size)
            rounds.append(time.perf_counter() - t0)
            setup_references += [reference() for _ in range(10)]
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        records, references, outputs = closed_loop(cli, pool, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rejected = check_outputs(pool, outputs, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(status != "ok" for _, _, status in records)
    failed += sum(count for index, seen in outputs.items()
                  for (rc, out), count in seen.items()
                  if rc != -1 and (index, rc, out) in rejected)
    for reason in rejected.values():
        print(f"rejected: {reason[:300]}", file=sys.stderr)
    timeouts = sum(status == "timeout" for _, _, status in records)
    latencies = [latency for _, latency, _ in records]
    busy = sum(latencies)
    tail, percentile = tail_latency(latencies)
    # How much slower than nominal the machine ran, in the loop and in set-up.
    slowdown = statistics.median(references) * 1000 / REFERENCE_MS
    setup_slowdown = statistics.median(setup_references) * 1000 / REFERENCE_MS
    kinds = sorted({pool[index].kind for index, _, _ in records})
    print(f"# {args.workload} seed {args.seed}: {len(records)} ops in {busy:.2f} s "
          f"({', '.join(kinds)}); tail = p{percentile:.1f} of {len(records)} ops; "
          f"{timeouts} timed out; {len(rejected)} rejected outputs; reference "
          f"{slowdown * REFERENCE_MS:.3f} ms, so wall times are {slowdown:.3f} x the "
          f"reported ones (wall p50 {statistics.median(latencies) * 1000:.2f} ms)")

    if tracer is not None:
        metrics = tracer.layer_metrics(len(records), busy)
        units = dict(spans.metric_names())
        for name, unit in units.items():
            if unit == "ms/op":
                metrics[name] /= slowdown
        metrics["trace.ops_per_s"] *= slowdown
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        dump = tracer.dump()
        dump["ops"] = [[i, pool[index].kind, index, latency, status]
                       for i, (index, latency, status) in enumerate(records)]
        dump["reference_s"] = references
        (trace_dir / f"{args.workload}-{args.seed}.json").write_text(json.dumps(dump))
    else:
        done = len(records) - failed
        metrics = {
            "ops_per_s": done / busy * slowdown,
            "latency_p50_ms": statistics.median(latencies) * 1000 / slowdown,
            "latency_tail_ms": tail * 1000 / slowdown,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(rounds) / setup_slowdown,
        }
        units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
    return {
        "correct": not rejected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "tracer": tracer,
        "pool": pool,
        "records": records,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = benchmark(args)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
