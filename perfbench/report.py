"""Run the benchmark over several seeds and print every metric of every workload.

    python3 perfbench/report.py [--seeds 10] [--first-seed 1] [--workload NAME ...]
                                [--trace] [--out FILE]

For each workload it runs ``run.py --trace 0`` once per seed, one run after
another, and prints each end-to-end metric's median, quartiles (as
``statistics.quantiles(n=4)`` gives them), spread (quartile distance over
median) and sample count, next to the bound from BENCHMARK.json.  A spread
above a third of its bound is flagged.  ``--trace`` adds one ``--trace 1``
run per workload and prints its per-layer metrics.  ``--out`` writes every
run's result, with its environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs: dict[str, dict[str, list]] = {}
    for workload in args.workload or names:
        runs[workload] = {"timed": [], "traced": []}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], 0)
            runs[workload]["timed"].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
        if args.trace:
            runs[workload]["traced"].append(run_once(workload, args.first_seed, 0, 1))

    print(f"\n{'workload':<11} {'metric':<12} {'unit':<9} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6} {'n':>3}")
    for workload, result in runs.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in result["timed"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median
            flag = "  > bound/3" if spread > m["bound"] / 3 and m["name"] != "setup_s" else ""
            print(f"{workload:<11} {m['name']:<12} {m['unit']:<9} {median:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {spread:>7.4f} {m['bound']:>6} {len(values):>3}{flag}")
        for traced in result["traced"]:
            print(f"\n{workload} per-layer (seed {args.first_seed}):")
            for name, m in traced["metrics"].items():
                print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
