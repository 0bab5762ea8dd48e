#!/usr/bin/env python3
"""sdnav benchmark launcher.

One run (what BENCHMARK.json's command runs), from the repository root:

    python3 perfbench/run.py --workload query-hot --seed 1 --seconds 45 --trace 0

builds perfbench/ (and the library from src/) into .bench_build/perfbench
if needed, runs one workload in one process, and relays its report; the
last line of standard output is the run's JSON result.

Other modes:

    python3 perfbench/run.py selftest
        the benchmark's own statistics self-tests
    python3 perfbench/run.py all --seed 1 [--seconds 45] [--trace 0]
        every workload once, one after another
    python3 perfbench/run.py repeat --workload W --seeds 1-10 --out DIR
        [--seconds 45] [--trace 0]
        several seeds, each run's output saved under DIR
    python3 perfbench/run.py summary DIR [BASE_DIR]
        median and quartiles of every workload x metric in DIR; with
        BASE_DIR, each median's change against BASE_DIR's, judged
        against the bounds in BENCHMARK.json
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD_DIR / "sdnav_perfbench"
WORKLOADS = ["query-hot", "query-churn", "offline"]
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; a no-op when nothing changed."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no sdnav sources under {ROOT / 'src'}; nothing to benchmark")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "sdnav_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_binary(args, stdout=None):
    """Run the benchmark binary; returns its exit code. The binary is
    stopped and waited for if the run overruns or run.py is told to
    stop."""
    command = [str(BINARY), *args, "--out-dir", str(OUT_DIR),
               "--goldens", str(ROOT / "goldens")]
    with subprocess.Popen(command, cwd=ROOT, stdout=stdout) as process:
        def stop(signum, frame):
            process.kill()
            process.wait()
            sys.exit(128 + signum)
        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            return process.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
            return 1


def run_args(workload, seed, seconds, trace):
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def read_run(path):
    """(workload, trace, seed, digests, result) of one saved run."""
    header, digests, result = None, [], None
    for line in path.read_text().splitlines():
        if line.startswith("perfbench workload="):
            header = dict(f.split("=", 1) for f in line.split()[1:])
        elif line.startswith("inputs digest "):
            digests.append(line.split(" ", 2)[2])
        elif line.startswith("{"):
            result = json.loads(line)
    if header is None or result is None:
        return None
    return (header["workload"], header["trace"], header["seed"],
            tuple(digests), result)


def collect(directory):
    """{(workload, trace): {"metrics": {name: [values]}, ...}}."""
    groups = {}
    for path in sorted(Path(directory).glob("*.txt")):
        run = read_run(path)
        if run is None:
            log(f"{path}: no result (failed or invalid run)")
            continue
        workload, trace, seed, digests, result = run
        group = groups.setdefault((workload, trace), {
            "metrics": {}, "units": {}, "runs": 0, "failed": 0,
            "digests": {}})
        group["runs"] += 1
        group["failed"] += 0 if result["correct"] else 1
        group["digests"][seed] = digests
        for name, metric in result["metrics"].items():
            group["metrics"].setdefault(name, []).append(metric["value"])
            group["units"][name] = metric["unit"]
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(directory, base=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    groups = collect(directory)
    base_groups = collect(base) if base else {}
    worse = 0
    for (workload, trace), group in sorted(groups.items()):
        print(f"{workload} (trace {trace}): {group['runs']} runs, "
              f"{group['failed']} incorrect")
        for seed, digests in sorted(group["digests"].items(),
                                    key=lambda item: int(item[0])):
            print(f"  seed {seed}: inputs {' '.join(digests)}")
        print(f"  {'metric':28s} {'unit':6s} {'q1':>12s} {'median':>12s} "
              f"{'q3':>12s} {'spread':>7s}" + ("  vs base" if base else ""))
        for name, values in group["metrics"].items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            line = (f"  {name:28s} {group['units'][name]:6s} {q1:12.6g} "
                    f"{med:12.6g} {q3:12.6g} {spread:7.3f}")
            spec = bounds.get(name)
            if spec and spread > spec["bound"] and name != "setup_s":
                line += "  SPREAD>BOUND"
            base_values = base_groups.get((workload, trace), {}).get(
                "metrics", {}).get(name)
            if base_values:
                base_med = statistics.median(base_values)
                change = (med - base_med) / base_med if base_med else 0.0
                line += f"  {change:+.3f}"
                if spec:
                    regress = change if spec["better"] == "lower" else -change
                    if regress > spec["bound"]:
                        line += " WORSE>BOUND"
                        worse += 1
            print(line)
    return 1 if worse else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "selftest":
        return run_binary(["--self-test"]) if build() else 1
    if argv and argv[0] == "summary":
        parser = argparse.ArgumentParser(prog="run.py summary")
        parser.add_argument("runs")
        parser.add_argument("base", nargs="?")
        args = parser.parse_args(argv[1:])
        return summary(args.runs, args.base)
    if argv and argv[0] in ("all", "repeat"):
        parser = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "all":
            parser.add_argument("--seed", type=int, required=True)
        else:
            parser.add_argument("--workload", choices=WORKLOADS,
                                required=True)
            parser.add_argument("--seeds", required=True)
            parser.add_argument("--out", required=True)
        parser.add_argument("--seconds", type=float, default=45)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv[1:])
        if not build():
            return 1
        status = 0
        if argv[0] == "all":
            for workload in WORKLOADS:
                status |= run_binary(run_args(workload, args.seed,
                                              args.seconds, args.trace))
            return status
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for seed in parse_seeds(args.seeds):
            path = out / f"{args.workload}-trace{args.trace}-seed{seed}.txt"
            with open(path, "w") as saved:
                code = run_binary(run_args(args.workload, seed, args.seconds,
                                           args.trace), stdout=saved)
            log(f"{path.name}: exit {code}")
            status |= code
        return status

    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not build():
        return 1
    return run_binary(run_args(args.workload, args.seed, args.seconds,
                               args.trace))


if __name__ == "__main__":
    sys.exit(main())
