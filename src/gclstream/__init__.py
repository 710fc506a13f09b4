"""Desk-scale engine for general continual learning over single-pass,
blurry-boundary feature streams: a closed-form ridge router over random
feature expansions, per-task adapter experts with EMA head banks, the stream
generator, routing baselines, and the full metric suite.
"""

__version__ = "0.1.0"

import os
import sys
import warnings

# An idle OpenBLAS worker spins for 2**OPENBLAS_THREAD_TIMEOUT cycles (2**28
# by default) before it sleeps.  numpy and scipy each load their own OpenBLAS
# with its own workers, and the engine calls BLAS in many small pieces, so
# with the default the spinning workers of both pools take the cores from the
# main thread.  2**22 cycles (~2 ms at 2 GHz) outlasts the gaps between one
# pool's calls inside a burst of work, so a worker is not put to sleep and
# woken again for every call (a wake-up whose cost varies from run to run),
# yet it is much shorter than a batch, so a pool that is idle for the rest of
# the batch (scipy's, after the batch's dsyrk) stops spinning while the other
# works.
# OpenBLAS reads the variable when it loads, so this must precede numpy; a
# value already in the environment wins.  Imported after numpy, the engine
# sets it for scipy's pool only, and numpy's keeps spinning: one seed of the
# anytime_eval benchmark workload then took 0.97 s instead of 0.37-0.43 s
# (2-core Xeon), so that import order warns.
if "OPENBLAS_THREAD_TIMEOUT" not in os.environ and "numpy" in sys.modules:
    warnings.warn(
        "numpy was imported before gclstream, so its OpenBLAS loaded without "
        "OPENBLAS_THREAD_TIMEOUT and its idle threads spin for 2**28 cycles, "
        "which slows the engine; export OPENBLAS_THREAD_TIMEOUT=22 or import "
        "gclstream before numpy", RuntimeWarning)
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

from .analytic_router import (RouterState, accumulate, grow, new_router_state,
                              route, solve)
from .baselines import baseline_fit_update, baseline_route, new_baseline, oracle_route
from .ensemble import EnsembleConfig, ensemble_predict, full_inference
from .errors import ConfigError, NotSolvedError, NumericalError, ShapeError
from .expansion import ExpandedBatch, RandomExpansion
from .experts import (EmaBank, ExpertAdapter, ExpertPool, Head, LogitMask,
                      build_mask, ema_update, masked_ce_loss, train_step,
                      warm_start)
from .harness import RunConfig, RunResult, ablate, desk_config, run
from .metrics import (MetricsLedger, a_auc, a_avg, a_last, adapter_cka, bwt,
                      f_last, routing_accuracy, session_row)
from .stream import (SessionSchedule, StreamConfig, SyntheticBackbone,
                     build_schedule, build_stream, load_feature_file,
                     partition_classes, write_feature_file)
