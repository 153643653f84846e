"""Benchmark runner for anivex.

    python3 benchmarks/run.py --workload carleson-1d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory, nothing is installed.  The runner repeats whole rounds
of the workload until ``--seconds`` have passed (at least one round).  Each
round is a fresh child process, so imports, module caches and per-object
caches start cold as in a user's run; inside it one caller makes the calls
one after another.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
rounds, with set-up and run times rescaled to one machine speed by
``reference_kernel`` (raw wall times go to standard error).  With
``--trace 1`` every round runs twice, untraced and traced, on the same
inputs, and the metrics are the per-layer ones of the traced round with
the median run time, plus the tracing overhead.  Files go under
``.bench_work/`` in the checkout and are removed afterwards.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)  # the workload and metric names, with their units
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
ROUND_TIMEOUT_S = 170
# Median time of reference_kernel on the machine the README figures come from.
REFERENCE_NOMINAL_S = 0.30


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one round in this process and print its record.
    parser.add_argument("--round", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--round-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- one round, in the child process ---------------------------------------------


def reference_kernel():
    """Time a fixed piece of work that shares nothing with anivex.

    Its mix follows the workloads': powers over 4096-cell arrays, small
    LAPACK calls, a 64 x 64 FFT and an interpreter loop.  Its time tracks
    how fast the machine runs right now, so run and set-up times can be
    rescaled to one machine speed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random(4096) + 0.5
    m = rng.random((3, 3))
    y = rng.random((64, 64))
    start = time.perf_counter()
    total = 0.0
    for _ in range(300):
        for _ in range(20):
            total += float(np.sum(x ** (1.3 + 0.1 * x)))
            total += float(np.linalg.eigh(m @ m.T)[0][0])
        total += float(np.abs(np.fft.rfft2(y)).sum())
        total += sum(i * i for i in range(2000))
    return time.perf_counter() - start


def run_round(args):
    """Set up, run and check one round; returns its record."""
    sys.path.insert(0, SRC)
    import numpy as np

    import anivex

    if not os.path.abspath(anivex.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"anivex was imported from {anivex.__file__}, not from {SRC}")
    import anivex.cli  # noqa: F401
    import anivex.serialization  # noqa: F401
    import bench_workloads as bw

    tracer = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install()

    names, setup, run, check = bw.WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed, args.round])
    in_dir = os.path.join(args.round_dir, "inputs")
    out_dir = os.path.join(args.round_dir, "out")
    os.makedirs(in_dir)
    os.makedirs(out_dir)
    ctx = setup(rng, in_dir, out_dir)
    setup_wall_s = time.monotonic() - args.spawned_at
    reference_s = reference_kernel()

    ops = bw.Ops(names)
    cpu = time.process_time()
    ready = time.perf_counter()
    run(ctx, ops)
    end = time.perf_counter()
    cpu = time.process_time() - cpu
    if tracer is not None:
        tracer.enabled = False
    reference_s = 0.5 * (reference_s + reference_kernel())
    speed = REFERENCE_NOMINAL_S / reference_s

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    written = sum(
        os.path.getsize(os.path.join(dirpath, f)) for dirpath, _, files in os.walk(out_dir) for f in files
    )
    checked = time.perf_counter()
    ops.judge(check, ctx)
    check_s = time.perf_counter() - checked
    for name, status in ops.status.items():
        if status != "ok":
            print(f"[{args.workload} round {args.round}] {name}: {status}", file=sys.stderr)

    record = {
        "attempted": len(names),
        "failed": ops.failed,
        "wrong": ops.wrong,
        "setup_s": setup_wall_s * speed,
        "run_s": (end - ready) * speed,
        "setup_wall_s": setup_wall_s,
        "run_wall_s": end - ready,
        "run_cpu_s": cpu,
        "reference_s": reference_s,
        "check_s": check_s,
        "peak_rss_mib": peak_rss_mib,
        "written_bytes": float(written),
    }
    if tracer is not None:
        record["layers"] = bench_trace.layer_metrics(tracer.spans, ready, end, [n for n, _ in PER_LAYER])
    return record


# -- the measuring loop, in the parent process -------------------------------------


def spawn_round(args, index, traced, work_dir):
    round_dir = os.path.join(work_dir, f"round{index:03d}{'t' if traced else ''}")
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--round", str(index), "--round-dir", round_dir,
    ]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"round {index} of {args.workload} exited with {proc.returncode}")
    record = json.loads(lines[-1])
    print(f"{args.workload} seed {args.seed} round {index}{' traced' if traced else ''}: "
          f"wall set-up {record['setup_wall_s']:.3f} s, run {record['run_wall_s']:.3f} s "
          f"(cpu {record['run_cpu_s']:.3f} s), reference {record['reference_s']:.3f} s, checks {record['check_s']:.3f} s",
          file=sys.stderr)
    return record


def measure(args):
    work_dir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work_dir)
    plain, traced = [], []
    start = time.monotonic()
    try:
        index = 0
        while index == 0 or time.monotonic() - start < args.seconds:
            plain.append(spawn_round(args, index, False, work_dir))
            if args.trace:
                traced.append(spawn_round(args, index, True, work_dir))
            index += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it

    records = plain + traced
    result = {
        "correct": all(r["wrong"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
    }
    if not args.trace:
        result["metrics"] = {
            name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END
        }
        return result

    # One whole traced round, the one with the median run time, so that its
    # self times and unattributed time add up to its trace.run_s.
    middle = statistics.median_low(t["layers"]["trace.run_s"] for t in traced)
    layers = next(t["layers"] for t in traced if t["layers"]["trace.run_s"] == middle)
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(t["run_s"] - p["run_s"] for p, t in zip(plain, traced))
        else:
            value = layers[name]
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    return result


def main(argv=None):
    args = parse_args(argv)
    if args.round is not None:
        print(json.dumps(run_round(args)))
        return 0
    if not os.path.isfile(os.path.join(SRC, "anivex", "__init__.py")):
        print(f"no anivex sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
