"""Run orchestration: the single-pass train/eval loop, ablation sweeps,
multi-seed aggregation, checkpoint/resume, and CSV/JSONL emission.

A run parses its feature file, if any, once, then executes, per seed: build
the stream; for every batch — spawn an expert if the policy says so, build the
logit mask, take k masked-CE gradient steps with EMA updates, expand the
(adapted) features and fold them into the router's statistics — then log
the records ``metrics.expected_records`` says the batch ends in (anytime,
session; final and oracle after the last batch) from one inference per
routing mode on held-out samples of the classes seen so far: select an
expert per row (``_select``, which solves the router lazily for ridge routing
and scores the holdout pool, expanded once per seed) and ensemble-predict.
Finishing the seed replays the log into the metrics and adds the baselines'
routing accuracies and the representation-similarity probe.

Everything stochastic is keyed by (seed, purpose tag, counters), never by a
shared sequential generator, so a seed's state after a batch is a function
of (config, seed, batch index): a checkpoint is those counters and the
prediction log, and resuming reruns the batches before it, then the rest of
the run bit for bit.  A seed's prediction log is its one record of its
evaluations: ``metrics.replay`` derives the ledger and the logged metrics
from it.  Outputs live in ``<outdir>/<run-id>/`` where the run id is a
config-hash prefix; repeated runs of an equal config overwrite the same
files with identical bytes (wall-clock timings go to a separate file
outside that contract).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
import zipfile
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .analytic_router import accumulate, grow, new_router_state, route, solve
from .baselines import (BASELINE_KINDS, baseline_fit_update, baseline_route,
                        new_baseline, oracle_route)
from .ensemble import AGGREGATIONS, EnsembleConfig, full_inference
from .errors import (ConfigError, ShapeError, check_fields, check_scalar,
                     parse_json)
from .expansion import ACTIVATIONS, ExpandedBatch, RandomExpansion
from .experts import (MASK_KINDS, SPAWN_POLICIES, ExpertPool, build_mask,
                      train_step)
from .metrics import (MetricsLedger, adapter_cka, expected_records,
                      record_name, replay, routing_accuracy)
from .stream import (FeatureSource, StreamConfig, StreamCursor,
                     build_stream, load_feature_file)

log = logging.getLogger("gclstream")

TAG_ADAPTER = 31
TAG_MASK = 32
TAG_CKA = 33

CHECKPOINT_VERSION = 8


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

ROUTING_MODES = ("ridge", "latest", "oracle", *BASELINE_KINDS)


@dataclass
class RunConfig:
    """Full experiment description; the result is a pure function of this.

    Defaults mirror the reference training setup (M = 10^4 expansion,
    lambda = 10^4, EMA decays 0.9/0.99, 3 GD iterations per batch at lr
    0.005, batch 64, seeds 1-5); use desk_config() for the scaled-down
    synthetic preset the tests and CLI default to.
    """

    stream: StreamConfig = field(default_factory=StreamConfig)
    M: int = 10_000
    activation: str = "relu"
    expansion_seed: int | None = None
    lam: float = 1e4
    ema_decays: tuple[float, ...] = (0.9, 0.99)
    aggregation: str = "softmax_max"
    mask_kind: str = "batch_seen_class"
    routing: str = "ridge"
    spawn_policy: str = "session_aligned"
    spawn_budget: int = 10_000
    lr: float = 0.005
    iters: int = 3
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    outdir: str = "runs"
    accumulate_adapted: bool = True
    reset_head_at_spawn: bool = False
    multi_expert: bool = True
    track_baselines: tuple[str, ...] = ()
    track_oracle: bool = True
    eval_session_matrix: bool = True
    log_predictions: bool = True
    cka_probe: int = 256

    def __post_init__(self):
        check_fields(self)
        self.ema_decays = tuple(float(a) for a in self.ema_decays)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.track_baselines = tuple(self.track_baselines)
        choices = [("activation", self.activation, ACTIVATIONS),
                   ("aggregation", self.aggregation, AGGREGATIONS),
                   ("mask kind", self.mask_kind, MASK_KINDS),
                   ("routing mode", self.routing, ROUTING_MODES),
                   ("spawn policy", self.spawn_policy, SPAWN_POLICIES),
                   *(("baseline kind", kind, BASELINE_KINDS)
                     for kind in self.track_baselines)]
        for what, value, allowed in choices:
            if value not in allowed:
                raise ConfigError(f"unknown {what} {value!r}")
        if self.M < 1 or self.lam <= 0 or self.lr <= 0 or self.iters < 1:
            raise ConfigError("M, lambda, lr must be positive; iters >= 1")
        bounded = (0.0, *self.ema_decays, 1.0)
        if not all(a < b for a, b in zip(bounded, bounded[1:])):
            raise ConfigError("ema_decays must increase strictly inside "
                              f"(0, 1), got {list(self.ema_decays)}")
        if self.spawn_budget < 1:
            raise ConfigError("spawn_budget must be >= 1")
        if self.cka_probe < 0:
            raise ConfigError(f"cka_probe={self.cka_probe} must be >= 0; 0 "
                              "skips the probe")
        if not 0 <= (self.expansion_seed or 0) < 2**64:  # the Philox key
            raise ConfigError(f"expansion_seed {self.expansion_seed} must "
                              "lie in 0..2**64-1")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not all(0 <= s < 2**63 for s in self.seeds):  # a checkpoint's int64
            raise ConfigError(f"seeds {list(self.seeds)} must lie in "
                              "0..2**63-1")
        for name, values in (("seeds", self.seeds),
                             ("track_baselines", self.track_baselines)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} repeat "
                                  f"{', '.join(map(str, repeated))}: each "
                                  "runs once")
        if self.stream.seed != StreamConfig.seed:
            raise ConfigError(
                f"stream.seed={self.stream.seed} has no effect: each run "
                "seed seeds its own stream; list the seeds in `seeds`")
        if self.stream.holdout_fraction == 0:
            raise ConfigError("stream.holdout_fraction=0 holds out no rows, "
                              "so a run would have nothing to evaluate")


def desk_config(**overrides) -> RunConfig:
    """Desk-scale preset: synthetic d=32 stream with a 1024-wide expansion."""
    return config_from_dict({"M": 1024, **overrides})


def config_to_dict(config: RunConfig) -> dict:
    """The config as plain data; its tuples serialize as JSON lists."""
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> RunConfig:
    stream = data.get("stream", {})
    if not isinstance(stream, StreamConfig):
        stream = dataclass_from_dict(StreamConfig, stream, "stream.")
    return dataclass_from_dict(RunConfig, {**data, "stream": stream})


def dataclass_from_dict(cls, data, prefix: str = ""):
    """``cls(**data)`` for a config dataclass; ConfigError unless ``data``
    is a dict whose keys all name fields of ``cls``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} is not a "
                          f"key-value object: {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError("unknown config keys: "
                          f"{sorted(prefix + key for key in unknown)}")
    return cls(**data)


def config_hash(config: RunConfig) -> str:
    """Identity of the run's science; where results land does not matter."""
    return config_dict_hash(config_to_dict(config))


def config_dict_hash(content: dict) -> str:
    """``config_hash`` of a config given as plain data, such as the
    ``config`` that config.json stores."""
    content = {key: value for key, value in content.items()
               if key != "outdir"}
    blob = json.dumps(content, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def code_hash() -> str:
    """Hash of the package sources, recorded alongside results."""
    root = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``key=value`` strings (dotted keys reach into the stream)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        merge_config(data, value)
    return data


def merge_config(data: dict, update: dict) -> dict:
    """Merge ``update`` into ``data``: a dict into a dict key by key, any
    other value in place of the old one."""
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            merge_config(data[key], value)
        else:
            data[key] = value
    return data


# ---------------------------------------------------------------------------
# per-seed state
# ---------------------------------------------------------------------------

class SeedRunState:
    """Everything one seed's run carries between batches."""

    def __init__(self, config: RunConfig, seed: int,
                 source: FeatureSource | None = None):
        self.config = config
        self.seed = seed
        self.source, self.schedule = build_stream(
            replace(config.stream, seed=seed), source)
        exp_seed = (config.expansion_seed
                    if config.expansion_seed is not None else seed)
        self.expansion = RandomExpansion(self.source.d, config.M, exp_seed,
                                         config.activation)
        self.router = new_router_state(config.M, config.lam, num_experts=1)
        adapter_rng = np.random.default_rng(
            np.random.SeedSequence([seed, TAG_ADAPTER]))
        self.pool = ExpertPool(self.source.d, self.source.num_classes,
                               config.ema_decays, adapter_rng,
                               reset_head_at_spawn=config.reset_head_at_spawn)
        kinds = {*config.track_baselines, config.routing} & {*BASELINE_KINDS}
        self.baselines = {
            kind: new_baseline(kind, config.M, seed=seed, lr=config.lr,
                               iters=config.iters) for kind in sorted(kinds)}
        self.batch_index = 0
        self.streamed = np.zeros(len(self.source.labels), dtype=bool)
        self.predictions_log: list[dict] = []

        # fixed evaluation pools
        hold = [self.schedule.holdout_by_class[c]
                for c in range(self.source.num_classes)]
        self.holdout_ids = np.concatenate(hold) if hold else np.array([], int)
        self.holdout_X = self.source.features(self.holdout_ids)
        self.holdout_y = self.source.labels[self.holdout_ids]

    @property
    def seen(self) -> set[int]:
        """The classes trained so far: those of every expert's window."""
        return set().union(*self.pool.trained_classes)

    @cached_property
    def holdout_phi(self) -> np.ndarray:
        """The holdout pool expanded, once per seed at its first read; every
        evaluation's router scores it."""
        return self.expansion(self.holdout_X)

    @property
    def meta(self) -> dict:
        """The seed's meta line (``metrics.RECORD_FIELDS``)."""
        config, schedule = self.config, self.schedule
        return {"phase": "meta", "seed": self.seed,
                "session_classes": list(map(sorted, schedule.session_classes)),
                "history": list(map(sorted, self.pool.trained_classes)),
                "eval_interval": config.stream.eval_interval,
                "session_batches": np.bincount(
                    [session for _, session, _ in schedule.batches]).tolist(),
                "session_records": config.eval_session_matrix,
                "oracle_record": (config.track_oracle
                                  and config.routing != "oracle"),
                "logged": config.log_predictions}

    @property
    def ledger(self) -> MetricsLedger:
        return replay(self.predictions_log, self.meta)[0]

    @property
    def cursor(self) -> StreamCursor:
        cur = StreamCursor(self.schedule, self.source)
        cur.skip_to(self.batch_index)
        return cur


def _grow_routers(state: SeedRunState, experts: int) -> None:
    if experts > state.router.num_experts:
        grow(state.router, experts)
    for baseline in state.baselines.values():
        while baseline.num_experts < experts:
            baseline.register_expert()


def _eval_pool(state: SeedRunState) -> np.ndarray:
    """The held-out rows of the classes trained so far."""
    return np.flatnonzero(np.isin(state.holdout_y, sorted(state.seen)))


def _select(state: SeedRunState, rows: np.ndarray, routing: str) -> np.ndarray:
    """One expert per held-out pool row in ``rows``.  A router scores the
    whole expanded pool, so no evaluation copies rows out of it.

    ``latest`` — the current expert; a baseline kind — that baseline's
    choice; ``ridge`` — the analytic router, solved first; ``oracle`` — the
    lowest-id expert that trained the row's label (held-out rows are drawn
    from trained classes only).
    """
    if routing == "latest":
        return np.full(len(rows), state.pool.current, dtype=np.int64)
    if routing in BASELINE_KINDS:
        return baseline_route(state.baselines[routing],
                              state.holdout_phi)[rows]
    if routing == "ridge":
        solve(state.router)
        return route(state.holdout_phi, state.router)[1][rows]
    if routing != "oracle":
        raise ValueError(
            f"unknown routing mode {routing!r}; choose from {ROUTING_MODES}")
    return np.array([oracle_route(int(label), state.pool.trained_classes)
                     for label in state.holdout_y[rows]], dtype=np.int64)


def _infer(state: SeedRunState, routing: str) -> dict:
    """Inference on the evaluation pool with the seen-class mask: the rows'
    ids and labels, their predictions and the experts ``_select`` picked,
    as the fields of a prediction log record."""
    rows = _eval_pool(state)
    selections = _select(state, rows, routing)
    mask = build_mask(state.seen, state.seen, "seen_class",
                      state.source.num_classes)
    _, predictions = full_inference(state.holdout_X[rows], selections,
                                    state.pool, mask,
                                    EnsembleConfig(state.config.aggregation))
    return {"ids": state.holdout_ids[rows].tolist(),
            "labels": state.holdout_y[rows].tolist(),
            "predictions": predictions.tolist(),
            "selections": selections.tolist()}


def run_batch(state: SeedRunState, batch) -> None:
    """Train on one batch, fold it into every router's statistics and log
    the records it ends in (``expected_records``), one inference per mode."""
    config = state.config
    X, y, ids, _, is_start = batch

    if state.pool.num_experts == 0 or (
            config.multi_expert and state.pool.should_spawn(
                config.spawn_policy, is_start, config.spawn_budget)):
        _grow_routers(state, state.pool.spawn() + 1)

    if state.streamed[ids].any():
        raise AssertionError("single-pass violation: sample replayed")
    state.streamed[ids] = True

    state.pool.observe(y)
    mask_rng = None
    if config.mask_kind == "random":
        mask_rng = np.random.default_rng(np.random.SeedSequence(
            [state.seed, TAG_MASK, state.batch_index]))
    mask = build_mask(set(int(c) for c in y), state.seen, config.mask_kind,
                      state.source.num_classes, mask_rng)

    train_step(state.pool.adapters[-1], state.pool.online, X, y, mask,
               config.lr, config.iters, state.pool.banks[-1])

    feats = (state.pool.adapters[-1].adapted(X)
             if config.accumulate_adapted else X)
    expanded = ExpandedBatch(state.expansion(feats), state.pool.current)
    accumulate(state.router, expanded)
    for baseline in state.baselines.values():
        baseline_fit_update(baseline, expanded)

    state.batch_index += 1

    infer = cache(lambda routing: _infer(state, routing))
    for phase, step in expected_records(state.meta, state.batch_index):
        state.predictions_log.append({"phase": phase, "step": step, **infer(
            "oracle" if phase == "oracle" else config.routing)})


def finish_seed(state: SeedRunState) -> dict:
    """A finished seed's metrics: those its log determines, baselines'
    routing accuracies, CKA probe, session sizes.  Pure; ValueError before
    the stream's last batch."""
    return _finish(state)[0]


def _finish(state: SeedRunState) -> tuple[dict, MetricsLedger]:
    """``finish_seed``'s metrics, and the ledger of the one replay of the
    seed's log that they come from."""
    if state.batch_index < len(state.schedule.batches):
        raise ValueError(f"seed {state.seed} has run {state.batch_index} of "
                         f"its {len(state.schedule.batches)} batches")
    ledger, metrics = replay(state.predictions_log, state.meta)

    rows = _eval_pool(state)
    for kind in sorted(state.baselines):
        metrics[f"routing_accuracy_{kind}"] = routing_accuracy(
            _select(state, rows, kind), state.holdout_y[rows],
            state.pool.trained_classes)

    if state.pool.num_experts > 1 and state.config.cka_probe > 0:
        probe_rng = np.random.default_rng(
            np.random.SeedSequence([state.seed, TAG_CKA]))
        n = min(state.config.cka_probe, len(state.holdout_X))
        probe = state.holdout_X[
            probe_rng.choice(len(state.holdout_X), size=n, replace=False)]
        cka = adapter_cka([ad.scale for ad in state.pool.adapters], probe)
        pairs = np.triu_indices(state.pool.num_experts, k=1)
        for i, j in zip(*pairs):
            metrics[f"cka_{i}_{j}"] = float(cka[i, j])
        metrics["cka_mean"] = float(np.nanmean(cka[pairs]))

    for t, size in enumerate(state.schedule.session_sizes):
        metrics[f"session_size_{t}"] = float(size)
    return metrics, ledger


def _train(state: SeedRunState) -> SeedRunState:
    """Run the seed's batches from its batch index to the stream's end."""
    cursor = state.cursor
    while (batch := cursor.next_batch()) is not None:
        run_batch(state, batch)
    return state


def run_seed(config: RunConfig, seed: int,
             state: SeedRunState | None = None) -> tuple[dict, SeedRunState]:
    """Run one seed start (or checkpoint) to finish."""
    state = _train(SeedRunState(config, seed) if state is None else state)
    return finish_seed(state), state


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def checkpoint(state: SeedRunState, path) -> None:
    """Write a batch-boundary snapshot of a seed's run as one flat npz: its
    counters and its prediction log as JSON, from which ``resume`` rebuilds
    everything else."""
    entries = {"version": CHECKPOINT_VERSION,
               "config_hash": config_hash(state.config), "seed": state.seed,
               "batch_index": state.batch_index,
               "predictions_log": json.dumps(state.predictions_log)}
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def resume(path, config: RunConfig) -> SeedRunState:
    """Rebuild a SeedRunState from a snapshot; config must hash-match.

    The seed reruns its first ``batch_index`` batches, which rebuild every
    array, and the snapshot's log must be the very text ``checkpoint``
    writes of theirs.  A checkpoint that cannot be read, lacks an entry,
    has an entry of another dtype or shape, a batch index outside the
    schedule, or a log other than that text raises ConfigError.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            snap = dict(data.items())
        if "meta" in snap:  # up to v5 the counters were one JSON entry
            snap["version"] = json.loads(str(snap["meta"]))["version"]
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError,
            TypeError) as err:
        raise ConfigError(f"{path}: unreadable checkpoint ({err})") from err
    try:
        return _restore(snap, config)
    except KeyError as err:
        raise ConfigError(f"{path}: checkpoint has no entry {err}") from err
    except (ShapeError, ConfigError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _restore(snap: dict, config: RunConfig) -> SeedRunState:
    version = check_scalar(snap, "version", np.int64)
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint version {version} != engine "
                          f"checkpoint version {CHECKPOINT_VERSION}")
    chash = check_scalar(snap, "config_hash", str)
    if chash != config_hash(config):
        raise ConfigError("checkpoint was written under a different config "
                          f"({chash[:12]} != {config_hash(config)[:12]}); "
                          "refusing to resume")
    state = SeedRunState(config, check_scalar(snap, "seed", np.int64))
    done = check_scalar(snap, "batch_index", np.int64)
    if not 0 <= done <= len(state.schedule.batches):
        raise ShapeError(f"batch_index {done} outside "
                         f"0..{len(state.schedule.batches)}")
    stored = check_scalar(snap, "predictions_log", str)
    for _ in range(done):
        run_batch(state, state.cursor.next_batch())
    if stored != json.dumps(state.predictions_log):
        raise ConfigError(_departure(stored, state.predictions_log, done))
    return state


def _departure(stored: str, log: list, done: int) -> str:
    """The refusal naming where the stored log text departs from ``log``'s."""
    records = parse_json(stored, "predictions_log")
    records = records if isinstance(records, list) else []
    texts = zip_longest(map(json.dumps, records), map(json.dumps, log))
    i = next((i for i, (text, ours) in enumerate(texts) if text != ours), None)
    if i is None:  # every record alike: the text between them departs
        return "predictions_log is not the text checkpoint writes"
    due = (log[i]["phase"], log[i]["step"]) if i < len(log) else None
    return (f"predictions_log record {i} departs from the log its {done} "
            f"batches write, which holds {record_name(due)} there")


# ---------------------------------------------------------------------------
# multi-seed runs and emission
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    config: RunConfig
    per_seed: dict
    mean: dict
    std: dict
    run_dir: str
    config_hash: str

    def summary(self) -> str:
        keys = [k for k in ("a_auc", "a_last", "routing_accuracy")
                if k in self.mean]
        parts = [f"{k}={self.mean[k]:.4f}±{self.std[k]:.4f}" for k in keys]
        return f"[{Path(self.run_dir).name}] " + " ".join(parts)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _metric_rows(lead: str, seeds, per_seed, mean, std) -> list[str]:
    """CSV rows ``<lead><seed|mean|std>,metric,value``."""
    lines = [f"{lead}{seed},{key},{_fmt(value)}"
             for seed in seeds for key, value in per_seed[seed].items()]
    for key in mean:
        lines.append(f"{lead}mean,{key},{_fmt(mean[key])}")
        lines.append(f"{lead}std,{key},{_fmt(std[key])}")
    return lines


def _aggregate(per_seed: dict) -> tuple[dict, dict]:
    """Mean and sample std of each metric every seed reports, in the first
    seed's key order."""
    common = set.intersection(*(set(m) for m in per_seed.values()))
    mean, std = {}, {}
    for key in [k for k in next(iter(per_seed.values())) if k in common]:
        values = np.array([metrics[key] for metrics in per_seed.values()])
        mean[key] = float(np.mean(values))
        std[key] = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


class SeedRecord(NamedTuple):
    """What emission reads of a finished seed, with the ledger its one replay
    derived.  A SeedRunState has the same attributes (its ``ledger``
    replays the log anew), so ``_write_outputs`` takes either."""

    meta: dict
    predictions_log: list
    ledger: MetricsLedger


def _write_outputs(config: RunConfig, per_seed: dict, states: dict,
                   run_dir: Path, timing: dict) -> tuple[dict, dict]:
    """Write the run directory; returns the mean and std it wrote."""
    run_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)

    payload = {
        "config": config_to_dict(config),
        "config_hash": chash,
        "code_hash": code_hash(),
        "engine_version": __version__,
    }
    (run_dir / "config.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    mean, std = _aggregate(per_seed)
    lines = ["seed,metric,value",
             *_metric_rows("", config.seeds, per_seed, mean, std)]
    (run_dir / "metrics.csv").write_text("\n".join(lines) + "\n")

    ledgers = {seed: states[seed].ledger for seed in config.seeds}
    T = config.stream.sessions
    lines = ["seed,row," + ",".join(f"s{j}" for j in range(T))]
    lines += [f"{seed},{i}," + ",".join(map(_fmt, row))
              for seed in config.seeds
              for i, row in enumerate(ledgers[seed].session_matrix)]
    (run_dir / "session_matrix.csv").write_text("\n".join(lines) + "\n")

    lines = ["seed,step,accuracy"]
    lines += [f"{seed},{step},{_fmt(acc)}" for seed in config.seeds
              for step, acc in enumerate(ledgers[seed].anytime, start=1)]
    (run_dir / "anytime.csv").write_text("\n".join(lines) + "\n")

    with open(run_dir / "predictions.jsonl", "w") as fh:
        for seed in config.seeds:
            state = states[seed]
            fh.write(json.dumps(state.meta, sort_keys=True) + "\n")
            if config.log_predictions:
                for record in state.predictions_log:
                    fh.write(json.dumps({"seed": seed, **record},
                                        sort_keys=True) + "\n")

    (run_dir / "timing.json").write_text(
        json.dumps(timing, indent=2, sort_keys=True) + "\n")
    return mean, std


def _load_source(config: RunConfig) -> FeatureSource | None:
    """The parsed feature file of ``config.stream``, None for a synthetic
    stream."""
    feature_file = config.stream.feature_file
    return load_feature_file(feature_file) if feature_file else None


def run(config: RunConfig, source: FeatureSource | None = None) -> RunResult:
    """Execute every seed and emit the run directory; pure in config.

    ``source`` is the parsed feature file when the caller has read it
    already; by default the file, if the stream names one, is parsed here.
    """
    chash = config_hash(config)
    run_dir = Path(config.outdir) / f"run-{chash[:12]}"
    per_seed: dict[int, dict] = {}
    records: dict[int, SeedRecord] = {}
    timing: dict[str, float] = {}
    if source is None:
        source = _load_source(config)
    for seed in config.seeds:
        started = time.perf_counter()
        state = _train(SeedRunState(config, seed, source))
        per_seed[seed], ledger = _finish(state)
        timing[f"seed_{seed}_s"] = time.perf_counter() - started
        records[seed] = SeedRecord(state.meta, state.predictions_log, ledger)
        del state  # G and its factorization go before the next seed starts
        log.info("seed %d done in %.2fs", seed, timing[f"seed_{seed}_s"])
    mean, std = _write_outputs(config, per_seed, records, run_dir, timing)
    return RunResult(config=config, per_seed=per_seed, mean=mean, std=std,
                     run_dir=str(run_dir), config_hash=chash)


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------

def _component_cells(config: RunConfig):
    """The on/off grid: expert pool x routing x EMA bank."""
    return [
        ("single", replace(config, multi_expert=False, routing="latest",
                           ema_decays=())),
        ("single_ema", replace(config, multi_expert=False, routing="latest")),
        ("multi_latest", replace(config, routing="latest", ema_decays=())),
        ("multi_latest_ema", replace(config, routing="latest")),
        ("multi_ridge", replace(config, routing="ridge", ema_decays=())),
        ("full", replace(config, routing="ridge")),
    ]


def _sweep(key: str, values, name=str):
    """Cells ``(name(v), config with key = v)``, ``stream.`` keys too."""
    def cell(config: RunConfig, v) -> RunConfig:
        if key.startswith("stream."):
            v = replace(config.stream, **{key[len("stream."):]: v})
        return replace(config, **{key.split(".")[0]: v})
    return lambda config: [(name(v), cell(config, v)) for v in values]


ABLATIONS = {
    "components": _component_cells,
    "aggregation": _sweep("aggregation", AGGREGATIONS),
    "decays": _sweep("ema_decays", ((), (0.9,), (0.99,), (0.999,), (0.9, 0.99),
                                    (0.9, 0.99, 0.999)),
                     lambda bank: "+".join(map(str, bank)) or "online_only"),
    "mask": _sweep("mask_kind", MASK_KINDS),
    "routing_alg": _sweep("routing", ("ridge", "latest", *BASELINE_KINDS,
                                      "oracle")),
    "M_sweep": _sweep("M", (64, 256, 1024, 4096), "M{}".format),
    "lambda_sweep": _sweep("lam", (1e2, 1e3, 1e4, 1e5), "lam{:g}".format),
    "rd_sweep": _sweep("stream.disjoint_ratio", (0.0, 0.5, 1.0),
                       "rd{:g}".format),
    "rb_sweep": _sweep("stream.blurry_ratio", (0.0, 0.1, 0.3, 0.5),
                       "rb{:g}".format),
}
ABLATION_AXES = tuple(ABLATIONS)


def ablate(config: RunConfig, axis: str):
    """Sweep one axis with everything else fixed; emits a combined CSV.

    No axis changes the stream's feature file, ``d`` or ``num_classes``, so
    a feature file is parsed once and handed to every cell's run.
    """
    if axis not in ABLATIONS:
        raise ConfigError(
            f"unknown ablation axis {axis!r}; choose from {ABLATION_AXES}")
    base_out = Path(config.outdir) / f"ablate_{axis}"
    source = _load_source(config)
    results = []
    lines = ["cell,seed,metric,value"]
    for name, cell_config in ABLATIONS[axis](config):
        result = run(replace(cell_config, outdir=str(base_out)), source)
        results.append((name, result))
        lines += _metric_rows(f"{name},", result.config.seeds,
                              result.per_seed, result.mean, result.std)
        log.info("ablation %s cell %s: %s", axis, name, result.summary())
    base_out.mkdir(parents=True, exist_ok=True)
    (base_out / f"ablate_{axis}.csv").write_text("\n".join(lines) + "\n")
    return results
