#!/usr/bin/env python3
"""Builds and runs the deployed-cluster benchmark, and compares result sets.

Run from the repository root:

    python3 clusterbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 clusterbench/run.py compare BASE.jsonl CHANGE.jsonl
    python3 clusterbench/run.py selftest

The first form builds `wbamd` (from the repository's workspace) and the
`clusterbench` package into $CARGO_TARGET_DIR (default `.bench_build`), then
runs one workload, or every workload in turn with `all`. The last line of a
single-workload run is its result object. Records, one JSON line per run with
provenance and every metric's sample count, are appended to
`.bench_results/records.jsonl` (`--results FILE` to choose another file).

`compare` reads two record files and prints, per workload and metric, each
side's median and quartiles and the verdict of the rule in README.md.
`selftest` runs the benchmark's own tests.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.relpath(HERE)


def benchmark_json():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def die(msg, code=2):
    print(f"clusterbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(["cargo", *args], env=env, stdout=sys.stderr)
    if done.returncode != 0:
        die(f"`cargo {' '.join(args)}` failed")


def build():
    """Builds wbamd and the benchmark; returns (benchmark, wbamd) paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/harness/Cargo.toml")):
        die("run from the repository root: the wbamd sources are not here")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo(["build", "--release", "--offline", "-q", "-p", "wbam-harness", "--bin", "wbamd"], target)
    cargo(["build", "--release", "--offline", "-q", "--manifest-path",
           os.path.join(PACKAGE, "Cargo.toml")], target)
    return os.path.join(target, "release", "clusterbench"), os.path.join(target, "release", "wbamd")


def option(argv, name):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def run_all(bench, wbamd, argv):
    """Runs every workload in turn; exits non-zero if any run fails."""
    i = argv.index("--workload")
    ok = True
    summary = []
    for w in benchmark_json()["workloads"]:
        args = argv[:i + 1] + [w["name"]] + argv[i + 2:]
        done = subprocess.run([bench, "--wbamd", wbamd, *args], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            ok = False
            summary.append((w["name"], "FAILED", done.returncode))
            continue
        result = json.loads(lines[-1])
        summary.append((w["name"], "correct" if result["correct"] else "INCORRECT",
                        f"attempted={result['attempted']} failed={result['failed']}"))
        ok = ok and result["correct"]
    print("summary:")
    for row in summary:
        print("  " + "  ".join(str(x) for x in row))
    sys.exit(0 if ok else 1)


# ---- compare -------------------------------------------------------------

def load_records(path):
    """{(workload, trace): {metric: [values in file order]}}"""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith('{"record": "clusterbench"'):
                continue
            r = json.loads(line)
            metrics = out.setdefault((r["workload"], r["trace"]), {})
            for name, m in r["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, change, better, bound):
    """The rule for claiming a change: pairs won, median gap against the
    base's interquartile range, and (for end-to-end metrics) the bound."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    share = wins / len(pairs) if pairs else 0.0
    q1a, meda, q3a = quartiles(base)
    _, medb, _ = quartiles(change)
    gap = medb - meda
    iqr = q3a - q1a
    if share >= 0.9 and sign * gap > 0 and abs(gap) > iqr:
        return share, gap, iqr, "gain"
    if bound is None:
        return share, gap, iqr, "no claim"
    scale = abs(meda) if meda else 1.0
    if -sign * gap / scale > bound:
        return share, gap, iqr, "regression"
    if iqr / scale > bound and not all(sign * (b - a) > 0 for a in base for b in change):
        return share, gap, iqr, "unresolved"
    return share, gap, iqr, "within bound"


def compare(argv):
    if len(argv) != 2:
        die("usage: run.py compare BASE.jsonl CHANGE.jsonl")
    spec = benchmark_json()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_records(argv[0]), load_records(argv[1])
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"{workload} (trace {trace}): base {argv[0]} vs change {argv[1]}")
        print(f"  {'metric':<32} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'won':>5} {'gap':>11} {'base IQR':>10}  verdict")
        for name in sorted(set(base[key]) & set(change[key])):
            a, b = base[key][name], change[key][name]
            qa, qb = quartiles(a), quartiles(b)
            m = meta.get(name, {})
            share, gap, iqr, v = verdict(a, b, m.get("better", "lower"), m.get("bound"))
            print(f"  {name:<32} {qa[1]:>12.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                  f" {qb[1]:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
                  f" {share:>5.2f} {gap:>11.4f} {iqr:>10.4f}  {v}"
                  f"  (n={len(a)}/{len(b)})")


def main(argv):
    if argv[:1] == ["compare"]:
        compare(argv[1:])
        return
    if argv[:1] == ["selftest"]:
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        cargo(["test", "--release", "--offline", "-q", "--manifest-path",
               os.path.join(PACKAGE, "Cargo.toml")], target)
        done = subprocess.run([sys.executable, "-m", "unittest", "discover", "-q",
                               "-s", PACKAGE, "-p", "test_run.py"])
        sys.exit(done.returncode)
    if option(argv, "--workload") is None:
        die("usage: run.py --workload NAME|all --seed N --seconds S --trace 0|1 | compare | selftest")
    bench, wbamd = build()
    if option(argv, "--workload") == "all":
        run_all(bench, wbamd, argv)
    os.execv(bench, [bench, "--wbamd", wbamd, *argv])


if __name__ == "__main__":
    main(sys.argv[1:])
