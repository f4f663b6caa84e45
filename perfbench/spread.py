"""Run-to-run spread of the end-to-end metrics, the way they are judged.

Runs ``run.py`` once per seed for each workload and prints, per metric,
the median and the quartile spread ``(Q3 - Q1) / median`` (Python's
``statistics.quantiles(values, n=4)``) next to the metric's bound from
``BENCHMARK.json``::

    python3 perfbench/spread.py --workload serve_fresh --seeds 5
    python3 perfbench/spread.py --seeds 10            # every workload

A metric is steady when its spread stays under a third of its bound
(``setup_s`` is judged on its median alone).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            line = " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            )
            print(f"{workload} seed {seed}: correct={result['correct']} {line}",
                  flush=True)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            spread = quartile_spread(series)
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"  {workload}/{name}: median {median(series):.5g} "
                  f"spread {spread:.2%} bound {bounds[name]:.0%} "
                  f"{'ok' if ok else 'NOT STEADY'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
