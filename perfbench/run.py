"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload {extract,train,predict} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. BLAS and OpenMP are pinned to one thread
before numpy is imported. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("extract", "train", "predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the asckit sources under {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_start

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    correct, attempted, failed, metrics, report = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, out_dir)

    print("# env " + json.dumps(report["env"]))
    print("# info " + json.dumps(report["info"]))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 3
    for m in wanted:
        print(f"# {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    info = report["info"]
    print(f"# error_rate = {info['error_rate']:.6g} ({failed} failed of {attempted})")
    if not args.trace:
        print(f"# op_tail_s is p{info['op_tail_percentile']} of {info['timed_ops']} ops")
        for name, value in info["wall_clock"].items():
            print(f"# wall-clock {name} = {value:.6g}")
        print(f"# host scale = {info['host_scale']:.6g}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
