"""Run orchestration: the single-pass train/eval loop, ablation sweeps,
multi-seed aggregation, checkpoint/resume, and CSV/JSONL emission.

A run executes, per seed: build the stream; for every batch — spawn an expert
if the policy says so, build the logit mask, take k masked-CE gradient steps
with EMA updates, expand the (adapted) features and fold them into the
router's statistics — then every eval_interval batches and at every session
end run one inference on held-out samples of the classes seen so far: select
an expert per row (``_select``, which solves the router lazily for ridge
routing), ensemble-predict, and record the anytime accuracy and/or one row of
the session accuracy matrix; after the stream, run the final inference,
routing-accuracy comparisons, and the representation-similarity probe.

Everything stochastic is keyed by (seed, purpose tag, counters), never by a
shared sequential generator, so a checkpoint is just arrays and counters and
resuming reproduces the remainder of the run bit for bit.  The router, the
expert pool, the ledger and each baseline checkpoint their own ``state()``;
their ``load()`` refuses a shape the config would not build.  Outputs live in
``<outdir>/<run-id>/`` where the run id is a config-hash prefix; repeated
runs of an equal config overwrite the same files with identical bytes
(wall-clock timings go to a separate file outside that contract).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic_router import accumulate, grow, new_router_state, route, solve
from .baselines import (BASELINE_KINDS, baseline_fit_update, baseline_route,
                        new_baseline, oracle_route)
from .ensemble import AGGREGATIONS, EnsembleConfig, full_inference
from .errors import ConfigError, ShapeError, check_shape
from .expansion import ExpandedBatch, RandomExpansion
from .experts import (MASK_KINDS, SPAWN_POLICIES, ExpertPool, build_mask,
                      train_step)
from .metrics import (MetricsLedger, a_auc, a_avg, a_last, accuracy, bwt,
                      f_last, linear_cka, routing_accuracy, session_row)
from .stream import StreamConfig, StreamCursor, build_stream

log = logging.getLogger("gclstream")

TAG_ADAPTER = 31
TAG_MASK = 32
TAG_CKA = 33

CHECKPOINT_VERSION = 1


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
    ema_decays: tuple = (0.9, 0.99)
    aggregation: str = "softmax_max"
    mask_kind: str = "batch_seen_class"
    routing: str = "ridge"
    spawn_policy: str = "session_aligned"
    spawn_budget: int = 10_000
    lr: float = 0.005
    iters: int = 3
    seeds: tuple = (1, 2, 3, 4, 5)
    outdir: str = "runs"
    accumulate_adapted: bool = True
    reset_head_at_spawn: bool = False
    multi_expert: bool = True
    track_baselines: tuple = ()
    track_oracle: bool = True
    eval_session_matrix: bool = True
    log_predictions: bool = True
    cka_probe: int = 256

    def __post_init__(self):
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if self.mask_kind not in MASK_KINDS:
            raise ConfigError(f"unknown mask kind {self.mask_kind!r}")
        if self.routing not in ROUTING_MODES:
            raise ConfigError(f"unknown routing mode {self.routing!r}")
        if self.spawn_policy not in SPAWN_POLICIES:
            raise ConfigError(f"unknown spawn policy {self.spawn_policy!r}")
        for kind in self.track_baselines:
            if kind not in BASELINE_KINDS:
                raise ConfigError(f"unknown baseline kind {kind!r}")
        if self.M < 1 or self.lam <= 0 or self.lr <= 0 or self.iters < 1:
            raise ConfigError("M, lambda, lr must be positive; iters >= 1")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        self.ema_decays = tuple(float(a) for a in self.ema_decays)
        self.seeds = tuple(int(s) for s in self.seeds)
        self.track_baselines = tuple(self.track_baselines)


def desk_config(**overrides) -> RunConfig:
    """Desk-scale preset: synthetic d=32 stream with a 1024-wide expansion."""
    stream_overrides = overrides.pop("stream", {})
    if isinstance(stream_overrides, StreamConfig):
        stream = stream_overrides
    else:
        stream = StreamConfig(**stream_overrides)
    return RunConfig(stream=stream, M=overrides.pop("M", 1024), **overrides)


def config_to_dict(config: RunConfig) -> dict:
    d = dataclasses.asdict(config)
    d["ema_decays"] = list(config.ema_decays)
    d["seeds"] = list(config.seeds)
    d["track_baselines"] = list(config.track_baselines)
    return d


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    stream = data.pop("stream", {})
    if not isinstance(stream, StreamConfig):
        stream = StreamConfig(**stream)
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(stream=stream, **data)


def config_hash(config: RunConfig) -> str:
    """Identity of the run's science; where results land does not matter."""
    content = config_to_dict(config)
    content.pop("outdir")
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
        target = data
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
        target[parts[-1]] = value
    return data


# ---------------------------------------------------------------------------
# per-seed state
# ---------------------------------------------------------------------------

class SeedRunState:
    """Everything one seed's run carries between batches (checkpointable)."""

    def __init__(self, config: RunConfig, seed: int):
        self.config = config
        self.seed = seed
        stream_cfg = replace(config.stream, seed=seed)
        self.source, self.schedule = build_stream(stream_cfg)
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
        kinds = set(config.track_baselines)
        if config.routing in BASELINE_KINDS:
            kinds.add(config.routing)
        self.baselines = {
            kind: new_baseline(kind, config.M, seed=seed, lr=config.lr,
                               iters=config.iters)
            for kind in sorted(kinds)
        }
        self.ledger = MetricsLedger(config.stream.sessions)
        self.seen: set[int] = set()
        self.batch_index = 0
        self.streamed = np.zeros(len(self.source.labels), dtype=bool)
        self.predictions_log: list[dict] = []

        # fixed evaluation pools
        hold = [self.schedule.holdout_by_class[c]
                for c in range(self.source.num_classes)]
        self.holdout_ids = np.concatenate(hold) if hold else np.array([], int)
        self.holdout_X = self.source.features(self.holdout_ids)
        self.holdout_y = self.source.labels[self.holdout_ids]
        last = {}
        for i, (_, session, _) in enumerate(self.schedule.batches):
            last[session] = i
        self.session_last_batch = last

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


def _eval_pool(state: SeedRunState, classes) -> np.ndarray:
    wanted = np.isin(state.holdout_y, sorted(classes))
    return np.nonzero(wanted)[0]


def _ridge(state: SeedRunState, X: np.ndarray) -> np.ndarray:
    """The analytic router's expert per row: solve first, then expand."""
    solve(state.router)
    return route(state.expansion(X), state.router)[1]


def _select(state: SeedRunState, X: np.ndarray, y: np.ndarray,
            routing: str) -> np.ndarray:
    """One expert per held-out row.

    ``latest`` — the current expert; a baseline kind — that baseline's
    choice; ``ridge`` — the solved analytic router; ``oracle`` — the
    lowest-id expert that trained the row's label, the ridge choice for
    labels no expert trained.
    """
    if routing == "latest":
        return np.full(len(X), state.pool.current, dtype=np.int64)
    if routing in BASELINE_KINDS:
        return baseline_route(state.baselines[routing], state.expansion(X))
    if routing == "ridge":
        return _ridge(state, X)
    if routing != "oracle":
        raise ValueError(
            f"unknown routing mode {routing!r}; choose from {ROUTING_MODES}")
    picks = [oracle_route(int(label), state.pool.trained_classes)
             for label in y]
    if None in picks:
        ridge = _ridge(state, X)
        picks = [ridge[i] if e is None else e for i, e in enumerate(picks)]
    return np.array(picks, dtype=np.int64)


def _infer(state: SeedRunState, rows: np.ndarray, routing: str):
    """Inference on holdout rows with the seen-class mask."""
    X = state.holdout_X[rows]
    y = state.holdout_y[rows]
    selections = _select(state, X, y, routing)
    mask = build_mask(state.seen, state.seen, "seen_class",
                      state.source.num_classes)
    return full_inference(X, selections, state.pool, mask,
                          EnsembleConfig(state.config.aggregation)), y


def _log_predictions(state: SeedRunState, phase: str, step, rows, y, result):
    if not state.config.log_predictions:
        return
    record = {
        "phase": phase,
        "step": step,
        "ids": [int(i) for i in state.holdout_ids[rows]],
        "labels": [int(v) for v in y],
        "predictions": [int(v) for v in result.predictions],
        "selections": [int(v) for v in result.selections],
    }
    state.predictions_log.append(record)


def run_batch(state: SeedRunState, batch) -> None:
    """Train on one batch and fold it into every router's statistics."""
    config = state.config
    X, y, ids, session, is_start = batch

    if state.pool.num_experts == 0 or (
            config.multi_expert and state.pool.should_spawn(
                config.spawn_policy, is_start, config.spawn_budget)):
        _grow_routers(state, state.pool.spawn() + 1)

    if state.streamed[ids].any():
        raise AssertionError("single-pass violation: sample replayed")
    state.streamed[ids] = True

    state.seen.update(int(c) for c in y)
    mask_rng = None
    if config.mask_kind == "random":
        mask_rng = np.random.default_rng(np.random.SeedSequence(
            [state.seed, TAG_MASK, state.batch_index]))
    mask = build_mask(set(int(c) for c in y), state.seen, config.mask_kind,
                      state.source.num_classes, mask_rng)

    bank = state.pool.banks[-1] if config.ema_decays else None
    train_step(state.pool.adapters[-1], state.pool.online, X, y, mask,
               config.lr, config.iters, bank)
    state.pool.observe(y)

    feats = (state.pool.adapters[-1].adapted(X)
             if config.accumulate_adapted else X)
    expanded = ExpandedBatch(state.expansion(feats), state.pool.current)
    accumulate(state.router, expanded)
    for baseline in state.baselines.values():
        baseline_fit_update(baseline, expanded)

    state.batch_index += 1

    anytime = state.batch_index % config.stream.eval_interval == 0
    last = state.session_last_batch[session] == state.batch_index - 1
    session_end = config.eval_session_matrix and last
    if not (anytime or session_end):
        return
    rows = _eval_pool(state, state.seen)
    result, y_eval = _infer(state, rows, config.routing)
    if anytime:
        state.ledger.record_anytime(accuracy(result.predictions, y_eval))
        _log_predictions(state, "anytime",
                         state.batch_index // config.stream.eval_interval,
                         rows, y_eval, result)
    if session_end:
        state.ledger.record_session_row(session, session_row(
            result.predictions, y_eval,
            state.schedule.session_classes[:session + 1]))
        _log_predictions(state, "session", session, rows, y_eval, result)


def finish_seed(state: SeedRunState) -> dict:
    """Final inference, paired comparisons, CKA probe; returns metric dict."""
    config = state.config
    rows = _eval_pool(state, state.seen)
    result, y_eval = _infer(state, rows, config.routing)
    state.ledger.record_routing(result.selections, y_eval,
                                state.pool.trained_classes)
    _log_predictions(state, "final", None, rows, y_eval, result)

    metrics: dict[str, float] = {}
    R = state.ledger.session_matrix
    try:
        metrics["a_auc"] = a_auc(state.ledger.anytime)
    except ValueError:
        pass
    if config.eval_session_matrix:
        metrics["a_last"] = a_last(R)
        metrics["a_avg"] = a_avg(R)
        metrics["f_last"] = f_last(R)
        if config.stream.sessions >= 2:
            metrics["bwt"] = bwt(R)
    metrics["final_accuracy"] = accuracy(result.predictions, y_eval)
    metrics["routing_accuracy"] = routing_accuracy(
        result.selections, y_eval, state.pool.trained_classes)
    metrics["num_experts"] = float(state.pool.num_experts)

    if config.track_oracle and config.routing != "oracle":
        oracle_result, _ = _infer(state, rows, "oracle")
        metrics["oracle_accuracy"] = accuracy(oracle_result.predictions,
                                              y_eval)
        metrics["oracle_routing_accuracy"] = routing_accuracy(
            oracle_result.selections, y_eval, state.pool.trained_classes)
        metrics["oracle_fallbacks"] = float(sum(
            oracle_route(int(label), state.pool.trained_classes) is None
            for label in y_eval))
        if config.eval_session_matrix:
            metrics["oracle_a_last"] = float(np.mean(session_row(
                oracle_result.predictions, y_eval,
                state.schedule.session_classes)))
        _log_predictions(state, "oracle", None, rows, y_eval, oracle_result)

    others = set(state.baselines) - {config.routing}
    phi = state.expansion(state.holdout_X[rows]) if others else None
    for kind in sorted(state.baselines):
        if kind == config.routing:  # it chose the final selections above
            metrics[f"routing_accuracy_{kind}"] = metrics["routing_accuracy"]
            continue
        metrics[f"routing_accuracy_{kind}"] = routing_accuracy(
            baseline_route(state.baselines[kind], phi), y_eval,
            state.pool.trained_classes)

    if state.pool.num_experts > 1 and config.cka_probe > 0:
        probe_rng = np.random.default_rng(
            np.random.SeedSequence([state.seed, TAG_CKA]))
        n = min(config.cka_probe, len(state.holdout_X))
        probe = state.holdout_X[
            probe_rng.choice(len(state.holdout_X), size=n, replace=False)]
        residuals = [ad.adapted(probe) - probe for ad in state.pool.adapters]
        pairs = []
        for i in range(state.pool.num_experts):
            for j in range(i + 1, state.pool.num_experts):
                try:
                    value = linear_cka(residuals[i], residuals[j])
                except ValueError:
                    value = float("nan")
                metrics[f"cka_{i}_{j}"] = value
                pairs.append(value)
        if pairs:
            metrics["cka_mean"] = float(np.nanmean(pairs))

    for t, size in enumerate(state.schedule.session_sizes):
        metrics[f"session_size_{t}"] = float(size)
    return metrics


def run_seed(config: RunConfig, seed: int,
             state: SeedRunState | None = None) -> tuple[dict, SeedRunState]:
    """Run one seed start (or checkpoint) to finish."""
    if state is None:
        state = SeedRunState(config, seed)
    cursor = state.cursor
    while True:
        batch = cursor.next_batch()
        if batch is None:
            break
        run_batch(state, batch)
    return finish_seed(state), state


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def _components(state: SeedRunState) -> list:
    """(entry prefix, component) for everything with ``state``/``load``."""
    return [("", state.pool), ("", state.router), ("", state.ledger)] + [
        (f"baseline_{kind}_", b) for kind, b in state.baselines.items()]


def checkpoint(state: SeedRunState, path) -> None:
    """Write a lossless batch-boundary snapshot of a seed's run: array
    values of each ``state()`` as npz entries, the rest in ``meta``."""
    arrays = {"streamed": np.packbits(state.streamed)}
    meta = {"version": CHECKPOINT_VERSION,
            "config_hash": config_hash(state.config), "seed": state.seed,
            "batch_index": state.batch_index, "seen": sorted(state.seen),
            "predictions_log": state.predictions_log,
            "streamed_len": int(state.streamed.size)}
    for prefix, component in _components(state):
        for key, value in component.state().items():
            target = arrays if isinstance(value, np.ndarray) else meta
            target[prefix + key] = value
    with open(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta, sort_keys=True), **arrays)


def resume(path, config: RunConfig) -> SeedRunState:
    """Rebuild a SeedRunState from a snapshot; config must hash-match.

    A checkpoint that cannot be read, lacks an entry or has a shape the
    config would not build raises ConfigError.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {k: np.array(v) for k, v in data.items() if k != "meta"}
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as err:
        raise ConfigError(f"{path}: unreadable checkpoint ({err})") from err
    try:
        return _restore(meta, arrays, config)
    except (KeyError, ShapeError) as err:
        what = "no entry" if isinstance(err, KeyError) else "an unfit shape"
        raise ConfigError(f"{path}: checkpoint has {what}: {err}") from err


def _restore(meta: dict, arrays: dict, config: RunConfig) -> SeedRunState:
    if meta["version"] != CHECKPOINT_VERSION:
        raise ConfigError(
            f"checkpoint version {meta['version']} != engine checkpoint "
            f"version {CHECKPOINT_VERSION}")
    if meta["config_hash"] != config_hash(config):
        raise ConfigError(
            "checkpoint was written under a different config "
            f"({meta['config_hash'][:12]} != {config_hash(config)[:12]}); "
            "refusing to resume")

    state = SeedRunState(config, int(meta["seed"]))
    state.batch_index = int(meta["batch_index"])
    state.seen = set(meta["seen"])
    state.predictions_log = list(meta["predictions_log"])
    n = state.streamed.size
    if meta["streamed_len"] != n:
        raise ShapeError(f"streamed_len {meta['streamed_len']} != {n} samples")
    state.streamed = np.unpackbits(check_shape(
        arrays, "streamed", ((n + 7) // 8,)), count=n).astype(bool)

    entries = {**meta, **arrays}
    for prefix, component in _components(state):
        try:
            component.load({k[len(prefix):]: v for k, v in entries.items()
                            if k.startswith(prefix)})
        except (KeyError, ShapeError) as err:  # name the full entry
            raise type(err)(f"{prefix}{err.args[0]}") from err
        # the pool loads first and sizes the routers before they load
        _grow_routers(state, state.pool.num_experts)
    return state


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
    code_hash: str
    timing: dict

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
    common = None
    for metrics in per_seed.values():
        keys = set(metrics)
        common = keys if common is None else common & keys
    mean, std = {}, {}
    first = next(iter(per_seed.values()))
    for key in first:  # preserve insertion order
        if key not in common:
            continue
        values = np.array([per_seed[s][key] for s in per_seed])
        mean[key] = float(np.mean(values))
        std[key] = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def _write_outputs(config: RunConfig, per_seed: dict, states: dict,
                   run_dir: Path, timing: dict) -> None:
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

    lines = ["seed,metric,value",
             *_metric_rows("", config.seeds, per_seed, *_aggregate(per_seed))]
    (run_dir / "metrics.csv").write_text("\n".join(lines) + "\n")

    T = config.stream.sessions
    lines = ["seed,row," + ",".join(f"s{j}" for j in range(T))]
    for seed in config.seeds:
        R = states[seed].ledger.session_matrix
        for i in range(T):
            cells = ",".join(_fmt(R[i, j]) for j in range(T))
            lines.append(f"{seed},{i},{cells}")
    (run_dir / "session_matrix.csv").write_text("\n".join(lines) + "\n")

    lines = ["seed,step,accuracy"]
    for seed in config.seeds:
        for step, acc in enumerate(states[seed].ledger.anytime, start=1):
            lines.append(f"{seed},{step},{_fmt(acc)}")
    (run_dir / "anytime.csv").write_text("\n".join(lines) + "\n")

    with open(run_dir / "predictions.jsonl", "w") as fh:
        for seed in config.seeds:
            state = states[seed]
            meta = {
                "phase": "meta",
                "seed": seed,
                "session_classes": [sorted(s) for s in
                                    state.schedule.session_classes],
                "history": [sorted(s) for s in state.pool.trained_classes],
                "eval_interval": config.stream.eval_interval,
                "sessions": config.stream.sessions,
            }
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for record in state.predictions_log:
                fh.write(json.dumps({"seed": seed, **record},
                                    sort_keys=True) + "\n")

    (run_dir / "timing.json").write_text(
        json.dumps(timing, indent=2, sort_keys=True) + "\n")


def run(config: RunConfig) -> RunResult:
    """Execute every seed and emit the run directory; pure in config."""
    chash = config_hash(config)
    run_dir = Path(config.outdir) / f"run-{chash[:12]}"
    per_seed: dict[int, dict] = {}
    states: dict[int, SeedRunState] = {}
    timing: dict[str, float] = {}
    for seed in config.seeds:
        started = time.perf_counter()
        metrics, state = run_seed(config, seed)
        timing[f"seed_{seed}_s"] = time.perf_counter() - started
        per_seed[seed] = metrics
        states[seed] = state
        log.info("seed %d done in %.2fs", seed, timing[f"seed_{seed}_s"])
    mean, std = _aggregate(per_seed)
    _write_outputs(config, per_seed, states, run_dir, timing)
    return RunResult(config=config, per_seed=per_seed, mean=mean, std=std,
                     run_dir=str(run_dir), config_hash=chash,
                     code_hash=code_hash(), timing=timing)


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
    "routing_alg": _sweep("routing", ("ridge", *BASELINE_KINDS, "oracle")),
    "M_sweep": _sweep("M", (64, 256, 1024, 4096), "M{}".format),
    "lambda_sweep": _sweep("lam", (1e2, 1e3, 1e4, 1e5), "lam{:g}".format),
    "rd_sweep": _sweep("stream.disjoint_ratio", (0.0, 0.5, 1.0),
                       "rd{:g}".format),
    "rb_sweep": _sweep("stream.blurry_ratio", (0.0, 0.1, 0.3, 0.5),
                       "rb{:g}".format),
}
ABLATION_AXES = tuple(ABLATIONS)


def ablate(config: RunConfig, axis: str):
    """Sweep one axis with everything else fixed; emits a combined CSV."""
    if axis not in ABLATIONS:
        raise ConfigError(
            f"unknown ablation axis {axis!r}; choose from {ABLATION_AXES}")
    base_out = Path(config.outdir) / f"ablate_{axis}"
    results = []
    lines = ["cell,seed,metric,value"]
    for name, cell_config in ABLATIONS[axis](config):
        result = run(replace(cell_config, outdir=str(base_out)))
        results.append((name, result))
        lines += _metric_rows(f"{name},", result.config.seeds,
                              result.per_seed, result.mean, result.std)
        log.info("ablation %s cell %s: %s", axis, name, result.summary())
    base_out.mkdir(parents=True, exist_ok=True)
    (base_out / f"ablate_{axis}.csv").write_text("\n".join(lines) + "\n")
    return results
