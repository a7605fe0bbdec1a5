"""Multi-branch EEG decoder with multiscale sparse cross-attention fusion.

The numerical core is a small reverse-mode autodiff engine over numpy;
everything above it (branches, attention fusion, TCNs, training harness)
is deterministic given a run seed.
"""

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it. It is known to
# be 1 if numpy loads after the loop below, or if the user pinned it before
# numpy loaded; only then do eval's trial blocks and training's branch stage
# run on threads (model.WORKERS).
BLAS_ONE_THREAD = os.environ.get("OPENBLAS_NUM_THREADS", None if "numpy" in sys.modules else "1") == "1"

# Set before numpy loads BLAS, keeping a value the user has set: on a 2-core
# host the default of 2 threads spent 1.7-1.8x the CPU time for no wall-time gain.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .autodiff import Tensor, no_grad, precision, set_default_dtype
from .config import (
    AttentionConfig,
    ModelConfig,
    RunConfig,
    SplitSpec,
    SrConfig,
    SynthSpec,
    TcnConfig,
    TrainConfig,
)
from .data import TrialSet, read_eegd, split, synth_generate, write_eegd
from .gradcheck import grad_check
from .layers import Parameter
from .model import CsanetModel, count_parameters
from .optim import AdamState, adam_step

__all__ = [
    "AdamState",
    "AttentionConfig",
    "CsanetModel",
    "ModelConfig",
    "Parameter",
    "RunConfig",
    "SplitSpec",
    "SrConfig",
    "SynthSpec",
    "TcnConfig",
    "TrainConfig",
    "Tensor",
    "TrialSet",
    "adam_step",
    "count_parameters",
    "grad_check",
    "no_grad",
    "precision",
    "read_eegd",
    "set_default_dtype",
    "split",
    "synth_generate",
    "write_eegd",
]
