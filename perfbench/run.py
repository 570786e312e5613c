"""Benchmark of the mtjsc simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mnist14-isc256 --seed 1 --seconds 30 --trace 0

Workloads (see `workloads.WORKLOADS`): `mnist14-isc256`, `sonar60-isc1024`
and `energy-sonar60`.  Each run builds its inputs from the seed, sets up and
trains the network, measures a single-caller closed loop for `--seconds`,
checks every output, and prints one line per metric,

    metric <name> <value> <unit> <host|sim|count>

where host marks wall time or memory of this process, sim a value of the
modelled hardware or network, and count a number of calls.  The last line
is a JSON object with the end-to-end metrics of BENCHMARK.json (`--trace 0`)
or its per-layer metrics (`--trace 1`).  The gated throughput,
`best_ops_per_s`, counts each operation at the fastest time it took in the
run, because the shared host's speed swings from second to second; the
plain completed-per-second rates are printed beside it.  A traced run
alternates untraced and traced stretches, the traced ones with every public
function of the layers wrapped, and reports the rate difference as
`trace.overhead_frac`.  `perfbench/repeat.py` repeats runs over seeds for
quartiles and checks that simulated values repeat exactly.

The program is imported from `src/` of the checkout, never from elsewhere,
so the benchmark fails without it.  A failed output check prints each
failure to stderr and exits with status 1.
"""

import os

# One caller, one core: fix the BLAS pool before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import mtjsc from this checkout's src/ and nowhere else."""
    if not (SRC / "mtjsc" / "__init__.py").is_file():
        raise SystemExit(f"no mtjsc package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import mtjsc
    if Path(mtjsc.__file__).resolve().parent != SRC / "mtjsc":
        raise SystemExit(f"imported mtjsc from {mtjsc.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload.name)
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}: {why}")
    print(f"# python {platform.python_version()} numpy {np.__version__}"
          f" blas_threads {BLAS_THREADS} (single-caller closed loop)")
    report, ledger = workloads.run(workload, args.seed, args.seconds,
                                   bool(args.trace), ROOT)
    for name, value, unit, kind in report.lines:
        print(f"metric {name} {value!r} {unit} {kind}")
    print(f"digest {report.digest.hexdigest()} sim")
    if ledger.first_error is not None:
        print(f"# first error: {ledger.first_error}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in report.metrics:
            # per-layer metrics of a function the package no longer has
            if args.trace:
                continue
            raise SystemExit(f"end-to-end metric {name} was not measured")
        value, unit = report.metrics[name]
        if unit != entry["unit"]:
            raise SystemExit(f"{name} measured in {unit}, declared {entry['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    correct = not report.check_failures
    for failure in report.check_failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
