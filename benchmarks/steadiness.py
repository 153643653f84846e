"""Steadiness of the benchmark on one commit.

    python3 benchmarks/steadiness.py --runs 10 --sets 2

Runs the command from BENCHMARK.json, at its ``run_seconds``, ``--sets``
times ``--runs`` times on every workload, each run with its own seed, and
reports per workload and end-to-end metric the median and quartiles of
each set, the spread (interquartile distance over the median), and whether

* every spread stays within the metric's bound,
* every later set's median differs from the first set's by at most the
  bound, in either direction,
* the share of failed operations is the same in every set.

The bounds in BENCHMARK.json are set from these spreads.  The last line of
standard output is the whole summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def worse_by(first, second, better):
    """Relative worsening of second against first (negative if better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:  # interleaved, so slow drift hits every workload alike
                out = run_once(spec, w, seed, seconds)
                results[w][s].append(out)
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
                print(f"set {s} {w} seed {seed}: failed {out['failed']}/{out['attempted']} {vals}",
                      file=sys.stderr, flush=True)
            seed += 1

    summary = {"seconds": seconds, "runs": args.runs, "sets": args.sets, "workloads": {}}
    all_ok = True
    print(f"{'workload':<12} {'metric':<14} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        entry = {"failed_share": shares, "correct": correct, "metrics": {}}
        ok = correct and len(set(shares)) == 1
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            spreads_ok = all(st["spread"] <= bound for st in stats)
            drift = [worse_by(stats[0]["median"], st["median"], m["better"]) for st in stats[1:]]
            # Both sets run the same code: a move either way counts.
            drift_ok = all(abs(d) <= bound for d in drift)
            ok = ok and spreads_ok and drift_ok
            entry["metrics"][name] = {"sets": stats, "worse_by": drift, "bound": bound,
                                      "spread_ok": spreads_ok, "drift_ok": drift_ok}
            for i, st in enumerate(stats):
                print(f"{w:<12} {name:<14} {i:>3} {st['median']:>14.6g} {st['q1']:>14.6g} {st['q3']:>14.6g} "
                      f"{st['spread']:>8.4f} {bound:>6}")
            if drift:
                print(f"{w:<12} {name:<14} later sets worse by {', '.join(f'{d:+.4f}' for d in drift)}")
        entry["agree"] = ok
        all_ok = all_ok and ok
        print(f"{w:<12} failed share per set {shares}, correct {correct}: {'AGREE' if ok else 'DISAGREE'}")
        summary["workloads"][w] = entry
    summary["agree"] = all_ok
    print(json.dumps(summary))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
