"""Time one set-up of a workload in a fresh process and print it in seconds.

Set-up is what a user pays before the first unit of work: the imports,
reading the input, and building the model (paper_train), loading the
checkpoint (paper_eval) or building the mini model and its inputs
(gradcheck). The clock starts before the first import.

    python3 perfbench/setup_probe.py WORKLOAD [INPUT ...]
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import numpy as np

    workload, paths = argv[0], argv[1:]
    if workload == "paper_train":
        from csanet import train
        from csanet.config import ModelConfig

        train.read_eegd(paths[0])
        train.CsanetModel(ModelConfig(), rng=np.random.default_rng(0))
    elif workload == "paper_eval":
        from csanet import metrics  # noqa: F401  (imported by the eval path)
        from csanet.checkpoint import load_checkpoint
        from csanet.data import read_eegd

        read_eegd(paths[0])
        load_checkpoint(paths[1])
    elif workload == "gradcheck":
        from perfbench.inputs import mini_check_inputs

        mini_check_inputs()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1:])
