"""Desk-scale engine for general continual learning over single-pass,
blurry-boundary feature streams: a closed-form ridge router over random
feature expansions, per-task adapter experts with EMA head banks, the stream
generator, routing baselines, and the full metric suite.
"""

__version__ = "0.1.0"

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
from .metrics import (MetricsLedger, a_auc, a_avg, a_last, bwt, f_last,
                      linear_cka, routing_accuracy, session_row)
from .stream import (SessionSchedule, StreamConfig, SyntheticBackbone,
                     build_schedule, build_stream, load_feature_file,
                     partition_classes, write_feature_file)
