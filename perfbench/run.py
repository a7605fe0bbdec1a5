"""Benchmark entry point; prints one JSON result as its last line.

    python3 perfbench/run.py --workload paper_train|paper_eval|gradcheck \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics (see README.md). BLAS is pinned to one thread.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = (("setup_s", "s"), ("throughput", "items/s"), ("latency_ms", "ms"), ("peak_rss_mb", "MB"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper_train", "paper_eval", "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "csanet", "__init__.py")):
        print(f"no csanet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Before numpy is first imported; the command pins the same values.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    result, failures = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        from perfbench.trace import LAYER_METRICS as names
    else:
        names = END_TO_END
    values = result["metrics"]
    result["metrics"] = {name: {"value": float(values[name]), "unit": unit} for name, unit in names}
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
