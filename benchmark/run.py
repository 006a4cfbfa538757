"""asymspec benchmark: seeded CLI workloads run in one process, one op at a time.

    python3 benchmark/run.py --workload kernel-flat --seed 0 --seconds 25 --trace 0

Load model: a closed loop with one caller.  Each pass runs the workload's
fixed operation list through ``asymspec.cli.main(argv)``; passes repeat until
``--seconds`` of operation time has been measured (at least one pass).  Every
operation has a 10 s latency limit.  BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then one traced pass, and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See NOTES.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here or in a child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LIMIT_S = 10.0  # per-operation latency limit
SETUP_PROBES = 7  # fresh processes whose median is setup_s
WORKLOADS = ("kernel-flat", "series-analyze", "oracle-check", "known-defects")

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "n200_p50_s": "s",
    "complete_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """asymspec from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "asymspec", "cli.py")):
        raise BenchmarkError(f"no asymspec sources under {SRC}")
    sys.path.insert(0, SRC)
    from asymspec import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"asymspec was imported from {cli.__file__}, not {SRC}")
    return cli


def _git_commit() -> str:
    """The checkout's commit from .git, without running git; 'unknown' if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "limit_s": LIMIT_S,
    }


def _setup_seconds(warm_argv) -> float:
    """Median over fresh processes of spawn -> `import asymspec.cli` + one op."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(
            [sys.executable, probe, repr(spawned), SRC, json.dumps(warm_argv)],
            capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        record = json.loads(done.stdout.strip().splitlines()[-1])
        if record["exit"] not in (0, 2):
            raise BenchmarkError(f"set-up warm-up op exited {record['exit']}")
        samples.append(record["ready_s"])
    return statistics.median(samples)


def _run_pass(cli, ops_list, verified, tracer=None, totals=None):
    """One pass over the list: [(op, Outcome)]; spans are folded after each op."""
    from ops import run_op

    results = []
    for op in ops_list:
        # cli.main is looked up per op: it is the wrapper while tracing
        outcome = run_op(cli.main, op, LIMIT_S, verified)
        if tracer is not None:
            tracer.take(totals)
        results.append((op, outcome))
    return results


def _tail(values):
    """(value, percentile, beyond): the highest percentile with >= 10 values above it."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None, None, 0
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def _end_to_end(passes, setup_s):
    ops_list = [op for op, _ in passes[0]]
    per_op = [statistics.median(p[i][1].seconds for p in passes) for i in range(len(ops_list))]
    outcomes = [o for p in passes for _, o in p]
    tail, pct, beyond = _tail(per_op)
    n200 = [t for op, t in zip(ops_list, per_op) if op.n == 200]
    values = {
        "setup_s": setup_s,
        "total_s": statistics.median(sum(o.seconds for _, o in p) for p in passes),
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "op_tail_ms": None if tail is None else 1000.0 * tail,
        "n200_p50_s": statistics.median(n200) if n200 else None,
        "complete_frac": sum(o.status == "complete" for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops": len(ops_list),
        "passes": len(passes),
        "op_tail_ms": None if tail is None else f"p{pct:.1f}, {beyond} ops beyond it",
        "n200_p50_s": f"{len(n200)} ops at n = 200",
        "failed_frac": sum(o.status == "failed" for o in outcomes) / len(outcomes),
    }
    return {k: v for k, v in values.items() if v is not None}, notes


def run(args) -> dict:
    import tracing
    import workloads

    cli = _import_program()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        load = workloads.build(args.workload, args.seed, workdir)
        env = _environment(args)
        setup_s = _setup_seconds(load.warmup.argv)
        verified = {}  # outputs already checked, by digest
        _run_pass(cli, [load.warmup], verified)
        passes, measured = [], 0.0
        while not passes or measured < args.seconds:
            passes.append(_run_pass(cli, load.ops, verified))
            measured += sum(o.seconds for _, o in passes[-1])
        metrics, notes = _end_to_end(passes, setup_s)
        units = END_TO_END_UNITS
        untraced_total = metrics["total_s"]
        everything = [r for p in passes for r in p]
        if args.trace:
            tracer, totals = tracing.Tracer(), tracing.SpanTotals()
            tracer.install()
            try:
                traced = _run_pass(cli, load.ops, verified, tracer, totals)
            finally:
                tracer.uninstall()
            everything += traced
            bytes_out = sum(os.path.getsize(op.output) for op, o in traced
                            if o.status != "failed" and os.path.exists(op.output))
            metrics = totals.metrics(bytes_out)
            traced_total = sum(o.seconds for _, o in traced)
            metrics["trace.overhead_frac"] = traced_total / untraced_total - 1.0
            units = tracing.metric_units()
        return {
            "env": env,
            "notes": notes,
            "outcomes": everything,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    outcomes = result["outcomes"]
    failed = [(op, o) for op, o in outcomes if o.status == "failed"]
    print("env " + json.dumps(result["env"]))
    print("notes " + json.dumps(result["notes"]))
    seen = set()
    for op, o in failed:
        if op.id not in seen:
            seen.add(op.id)
            print(f"failed {op.id}: {o.reason}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not any(o.mismatch or o.crashed for _, o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
