"""Learnable rational-function activation units.

Evaluation and exact gradients (rational), coefficient initialization by
series-derived approximants and grid least squares (approx), closed-form
target activations (targets), a small trainable network (network),
optimizers and training (train, data), magnitude pruning (prune), and a
CLI (cli).

PAU_THREADS=<n> in the environment caps the BLAS and OpenMP worker
threads.  It is applied when this package is imported, before numpy
loads, and fills only the thread variables that are not already set.
It has no effect when numpy was imported before this package, or when
<n> is not an integer >= 1 (the pau command then exits 1).
Training and evaluation run a batch's shards on the cores left over by
the BLAS thread count (see train.worker_count).
"""

import os as _os

_cap = _os.environ.get("PAU_THREADS", "")
if _cap.isascii() and _cap.isdigit() and int(_cap) >= 1:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .approx import (FitConfig, builtin_coefficients, least_squares_fit,
                     pade_from_taylor, taylor_of)
from .data import DatasetHandle, load_idx, synth_digits
from .network import (Activation, Baseline, Conv2d, Dense, Flatten, MaxPool,
                      Network, PauUnit, Softmax, backward, build_network,
                      forward, lenet_spec, load_checkpoint, mlp_spec,
                      param_count, save_checkpoint, vgg8_spec)
from .prune import PruneReport, PruneSchedule, apply_prune, lottery_run, score_units
from .rational import (PoleError, RationalCoefficients, backward_pau, eval_pau,
                       eval_pau_batch, eval_polynomial, grad_pau,
                       read_coefficient_document, sample_noisy_coeffs,
                       write_coefficient_document)
from .targets import TargetActivation, TaylorUnsupportedError, parse_target
from .train import (Adam, SGD, Metrics, NonFiniteLossError, TrainConfig, evaluate,
                    train_model)

__version__ = "0.1.0"
