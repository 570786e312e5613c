"""Repeat the benchmark over seeds: spreads, and a determinism check.

    python3 perfbench/repeat.py --workload sonar60-isc1024 --seeds 1 2 3 4 5
    python3 perfbench/repeat.py --workload energy-sonar60 --seeds 7 --determinism --trace 1

Runs `perfbench/run.py` once per seed, one run at a time, and prints for
every metric the median, the quartiles and the quartile spread as a share
of the median (Python's `statistics.quantiles(values, n=4)`).  With
`--determinism` each seed runs twice, and every simulated value, every call
count and the output digest must repeat exactly; only host figures may
differ.  The last line is a JSON summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    metrics, exact = {}, {}
    for line in lines:
        parts = line.split()
        if parts[:1] == ["metric"]:
            _, name, value, unit, kind = parts
            metrics[name] = (float(value), unit, kind)
            if kind in ("sim", "count"):
                exact[name] = value
        elif parts[:1] == ["digest"]:
            exact["digest"] = parts[1]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: checks failed or operations failed: "
                         f"{lines[-1]}\n{proc.stderr}")
    return {"metrics": metrics, "exact": exact, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    runs, mismatches = [], []
    for seed in args.seeds:
        first = run_once(args.workload, seed, seconds, args.trace)
        runs.append(first)
        if args.determinism:
            second = run_once(args.workload, seed, seconds, args.trace)
            for name in sorted(set(first["exact"]) | set(second["exact"])):
                a, b = first["exact"].get(name), second["exact"].get(name)
                if a != b:
                    mismatches.append(f"seed {seed} {name}: {a} != {b}")
        print(f"seed {seed} done", file=sys.stderr)

    summary = {}
    names = [n for n in runs[0]["metrics"]]
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} kind")
    for name in names:
        values = [r["metrics"][name][0] for r in runs if name in r["metrics"]]
        unit, kind = runs[0]["metrics"][name][1:]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": unit, "kind": kind,
                         "values": values}
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {unit} {kind}")
    for line in mismatches:
        print(f"not deterministic: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": seconds, "trace": args.trace,
                      "deterministic": not mismatches if args.determinism
                      else None, "metrics": summary}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
