"""The benchmark's workloads, their generated inputs and their output checks.

Each workload is one engine config; a run repeats it over engine seeds derived
from the workload seed (``engine_seed``), one seed per fresh process.  The
workload seed is all the benchmark takes: it generates the inputs (the
feature file of ``anytime_eval``) and picks the engine seeds, and the engine
receives only those.  Why each workload exists, and the layer shares it was
chosen for, is written in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
# Used by nobody while the benchmark or a change is tuned; re-check a claimed
# gain on it (``--seed 7919``) before accepting the claim.
CHECK_SEED = 7919

# Accuracy metrics average the first ACCURACY_REPS engine seeds of a run, so
# they are a pure function of the workload seed, however many further
# repetitions the time box allows.
ACCURACY_REPS = 5

# The engine's outputs are a pure function of its config (byte-identical on
# rerun), so the pinned values must match to float round-off: any changed
# prediction at the default seed is a change of behaviour, to be re-pinned
# deliberately with its reason, never absorbed by a tolerance.
REFERENCE_TOL = 1e-9


def engine_seed(workload_seed: int, rep: int) -> int:
    return 1000 * workload_seed + rep


@dataclass(frozen=True)
class Workload:
    config: Callable            # (engine_seed, inputs) -> RunConfig
    make_inputs: Callable | None = None   # (workload_seed, workdir) -> dict
    recompute_cli: bool = False           # also run `gclstream metrics`


def _stream_train(seed: int, inputs: dict):
    from gclstream.harness import desk_config
    from gclstream.stream import StreamConfig, build_stream

    # The only anytime evaluation lands on the last batch, so the run makes
    # exactly one factorization (shared with finish_seed) and still reports
    # a_auc; everything else that reads the router is off.
    _, schedule = build_stream(StreamConfig(seed=seed))
    return desk_config(
        M=2048, seeds=(seed,), stream={"eval_interval": len(schedule.batches)},
        eval_session_matrix=False, log_predictions=False, track_oracle=False,
        cka_probe=0)


ANYTIME_STREAM = {"num_classes": 20, "samples_per_class": 100, "d": 256,
                  "sessions": 5}


def _anytime_inputs(workload_seed: int, workdir: Path) -> dict:
    from gclstream.stream import (StreamConfig, SyntheticBackbone,
                                  write_feature_file)

    path = workdir / "features.csv"
    source = SyntheticBackbone(StreamConfig(seed=workload_seed,
                                            **ANYTIME_STREAM))
    write_feature_file(path, source)
    return {"feature_file": str(path)}


def _anytime_eval(seed: int, inputs: dict):
    from gclstream.harness import desk_config

    return desk_config(
        M=1024, seeds=(seed,),
        stream={**ANYTIME_STREAM, "eval_interval": 1,
                "feature_file": inputs["feature_file"]})


def _baselines_track(seed: int, inputs: dict):
    from gclstream.baselines import BASELINE_KINDS
    from gclstream.harness import desk_config

    return desk_config(seeds=(seed,), track_baselines=BASELINE_KINDS)


WORKLOADS = {
    "stream_train": Workload(config=_stream_train),
    "anytime_eval": Workload(config=_anytime_eval,
                             make_inputs=_anytime_inputs, recompute_cli=True),
    "baselines_track": Workload(config=_baselines_track),
}

# Sanity floors that hold on every seed; a broken layer falls below them.
# (Per-seed values seen while building the benchmark: stream_train a_auc
# >= 0.995, anytime_eval >= 0.85, baselines_track >= 0.62; routing and final
# accuracy >= 0.995 everywhere.)
FLOORS = {
    "stream_train": {"a_auc": 0.9, "routing_accuracy": 0.9,
                     "final_accuracy": 0.9},
    "anytime_eval": {"a_auc": 0.6, "routing_accuracy": 0.9,
                     "final_accuracy": 0.9},
    "baselines_track": {"a_auc": 0.4, "routing_accuracy": 0.9,
                        "final_accuracy": 0.9},
}


def _pinned(*a_aucs):
    return {engine_seed(DEFAULT_SEED, rep): {
        "a_auc": a_auc, "routing_accuracy": 1.0, "final_accuracy": 1.0}
        for rep, a_auc in enumerate(a_aucs)}


# Outputs of the first ACCURACY_REPS engine seeds at the default seed.
REFERENCE = {
    "stream_train": _pinned(1.0, 1.0, 1.0, 1.0, 1.0),
    "anytime_eval": _pinned(0.8716763296227582, 0.9287577160493827,
                            0.861499078798186, 0.8502860616749506,
                            0.8654211116264686),
    "baselines_track": _pinned(0.7714285714285714, 0.6660714285714285,
                               0.6930555555555555, 0.6680555555555556,
                               0.6865079365079365),
}
