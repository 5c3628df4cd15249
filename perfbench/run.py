"""latcover benchmark: four workloads, end to end or traced per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--workload all`` (the default) every workload runs in a fresh
process of its own and a summary table follows.  With ``--trace 0`` a run
reports ``wall_s`` (median wall time of one pass), ``setup_s`` (median
time of a fresh interpreter importing latcover) and ``peak_rss_mb``; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead.  Every
pass is checked against the digests in ``reference.json``; a mismatch
makes the run exit 1.  The last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Per-run details (environment, pass times and, when traced, every span)
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verify", "scan", "tables", "lattices")
SETUP_RUNS = 7


def _die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def measure_setup(runs: int = SETUP_RUNS) -> list[float]:
    """Wall time of fresh interpreters that import latcover.

    One extra run goes first and is dropped: it writes the bytecode cache,
    which every later process, like a user's, finds in place.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import latcover"]
    times = []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            _die(f"importing latcover failed:\n{proc.stderr.decode(errors='replace')}")
        if i:
            times.append(elapsed)
    return times


def peak_rss_kib() -> int:
    """Peak resident set of this process or of any child it waited for.

    The children are the forked per-group processes of ``tables`` and
    ``lattices``; the interpreters ``measure_setup`` starts stay below
    this process, which imports the same modules and more.
    """
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def run_workload(args: argparse.Namespace) -> int:
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    env = environment(args.seed)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[args.workload]
    rng = random.Random(args.seed)
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    selfs: list[dict[str, float]] = []
    spans: list[list[object]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        for with_trace in (False, True) if args.trace else (False,):
            order = workloads.submission_order(args.workload, rng)
            recorder = workloads.Untraced()
            if with_trace:
                tracer.reset()
                tracer.install()
                recorder = tracer
            t0 = time.perf_counter()
            try:
                outputs = workloads.run_pass(args.workload, order, recorder)
            except Exception:  # a failed pass is counted, and the run goes on
                traceback.print_exc()
                outputs = {}
            finally:
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            bad = workloads.mismatches(args.workload, outputs, reference)
            if bad:
                print(f"output mismatch in {args.workload}: {', '.join(bad)}", file=sys.stderr)
            attempted += len(reference)
            failed += len(bad)
            if with_trace:
                traced.append(elapsed)
                layers.append(tracing.layer_metrics(tracer.spans, tracer.counts, elapsed))
                selfs.append(tracing.self_by_layer(tracer.spans, elapsed))
                spans.extend([len(traced) - 1, *s] for s in tracer.spans)
            else:
                plain.append(elapsed)

    record: dict[str, object] = {
        "workload": args.workload,
        "environment": env,
        "order_of_last_pass": order,
        "setup_s": setup,
        "pass_s": plain,
    }
    if args.trace:
        metrics = {name: (statistics.median(m[name] for m in layers), unit) for name, unit in tracing.UNITS.items()}
        metrics["trace.wall_s"] = (statistics.median(traced), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        last = [s[1:] for s in spans if s[0] == len(traced) - 1]
        record.update(traced_pass_s=traced, per_group=tracing.group_breakdown(last), spans=spans)
    else:
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_kib() / 1024, "MB"),
        }
    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    passes = f"{len(plain)} untraced" + (f" + {len(traced)} traced" if args.trace else "")
    print(f"workload {args.workload}: {passes} passes in order {order} (last); details in {path.relative_to(ROOT)}")
    if args.trace:
        print(tracing.summary(layers, selfs, traced))
        print(tracing.group_table(record["per_group"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ({failed} of {attempted} checked outputs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, then one summary table."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    done = {name: r for name, r in results.items() if r is not None}
    metric_names = list(next(iter(done.values()))["metrics"]) if done else []
    print()
    print(f"{'metric':36s}" + "".join(f"{name:>12s}" for name in WORKLOADS))
    for metric in metric_names:
        cells = []
        for name in WORKLOADS:
            m = results[name]["metrics"].get(metric) if results[name] else None
            cells.append(f"{m['value']:12.5g}" if m else f"{'-':>12s}")
        unit = next(r["metrics"][metric]["unit"] for r in done.values())
        print(f"{metric + ' (' + unit + ')':36s}" + "".join(cells))
    cells = [f"{r['failed'] / r['attempted']:12.5g}" if r else f"{'-':>12s}" for r in results.values()]
    print(f"{'failed_frac (failed/checked)':36s}" + "".join(cells))
    summary = {
        "correct": status == 0 and len(done) == len(WORKLOADS) and all(r["correct"] for r in done.values()),
        "attempted": sum(r["attempted"] for r in done.values()),
        "failed": sum(r["failed"] for r in done.values()),
        "metrics": {f"{name}.{metric}": m for name, r in done.items() for metric, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "latcover" / "__init__.py").is_file():
        _die(f"no latcover sources under {SRC}; run from a full checkout")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
