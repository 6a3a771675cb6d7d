#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (what BENCHMARK.json's command does), from the repository root:

    python3 benchmark/run.py --workload oneshot --seed 1 --seconds 30 --trace 0

builds the Go program under benchmark/ into .bench_build/ and runs one
workload. Its last line of output is the JSON result.

Without --seconds, a run measures for BENCHMARK.json's run_seconds.

Steadiness mode repeats every workload with a fresh seed per run and prints,
for each end-to-end metric, the median, quartiles and sample count next to
the metric's bound:

    python3 benchmark/run.py --steadiness 10 --sets 2

Everything the build writes (Go build cache, module cache, telemetry,
binary, span files) stays under .bench_build/ in the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bin" / "benchmark"
RUN_TIMEOUT = 170  # seconds; a run must end well within 180 s
BUILD_TIMEOUT = 600  # with one run, within the 900 s a first run may take


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(BUILD / "gocache"),
        "GOPATH": str(BUILD / "gopath"),
        "GOMODCACHE": str(BUILD / "gopath" / "pkg" / "mod"),
        "XDG_CONFIG_HOME": str(BUILD / "config"),  # go telemetry and go env files
        "GOTMPDIR": str(BUILD / "tmp"),  # the go command's work directories
        "TMPDIR": str(BUILD / "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-buildvcs=false",
    })
    if "GOMAXPROCS" not in env:
        env["GOMAXPROCS"] = str(min(2, os.cpu_count() or 1))
    return env


def build():
    if not (ROOT / "go.mod").is_file():
        sys.exit(f"run.py: {ROOT} holds no go.mod; the benchmark builds the program from its source")
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: no go toolchain on PATH")
    BINARY.parent.mkdir(parents=True, exist_ok=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    try:
        proc = subprocess.run([go, "build", "-o", str(BINARY), "."], cwd=BENCH_DIR, env=go_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: go build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: go build failed (exit {proc.returncode})")


def commit():
    """The git commit, or outside a git checkout a hash of the Go sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if rel.parts[0].startswith(".") or not path.is_file():
            continue
        if path.suffix == ".go" or path.name in ("go.mod", "go.sum"):
            h.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return "src-sha256:" + h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, rev, capture=False):
    args = [str(BINARY), "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
            "-trace", str(trace), "-commit", rev]
    if trace:
        args += ["-spans", str(BUILD / "spans" / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(args, cwd=ROOT, env=go_env(), timeout=RUN_TIMEOUT, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} seed {seed} did not finish within {RUN_TIMEOUT} s")
    return proc


def steadiness(opts, spec, seconds, rev):
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    for wl in workloads:
        sets = []
        for s in range(opts.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(opts.steadiness):
                seed = opts.first_seed + s * opts.steadiness + i
                proc = run_once(wl, seed, seconds, 0, rev, capture=True)
                if proc.returncode != 0:
                    sys.exit(f"run.py: {wl} seed {seed} exited {proc.returncode}")
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                if not res["correct"]:
                    print(f"{wl} seed {seed}: correct=false, {res['failed']} of {res['attempted']} ops failed")
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
            sets.append(values)
        print(f"\n{wl}: {opts.steadiness} runs per set, {opts.sets} set(s), {seconds} s per run, seeds from {opts.first_seed}")
        print(f"{'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for m in metrics:
            medians = []
            for s, values in enumerate(sets):
                vals = values[m["name"]]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                print(f"{m['name']:<18} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(vals):>3} "
                      f"{spread:>8.4f} {m['bound']:>6} {spread / m['bound']:>12.3f}")
            for s in range(1, len(medians)):
                worse = (medians[s] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                print(f"{'':<18} set {s + 1} median vs set 1: {worse:+.4f} worse ({verdict})")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measurement time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS",
                    help="repeat each workload RUNS times per set and print medians, quartiles and bounds")
    ap.add_argument("--sets", type=int, default=1, help="steadiness: number of sets, each with fresh seeds")
    ap.add_argument("--first-seed", type=int, default=1, help="steadiness: seed of the first run")
    opts = ap.parse_args()
    if opts.steadiness is None and opts.workload is None:
        ap.error("give --workload, or --steadiness RUNS")
    build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds if opts.seconds is not None else spec["run_seconds"]
    rev = commit()
    if opts.steadiness is not None:
        steadiness(opts, spec, seconds, rev)
        return 0
    return run_once(opts.workload, opts.seed, seconds, opts.trace, rev).returncode


if __name__ == "__main__":
    sys.exit(main())
