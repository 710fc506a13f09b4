"""One benchmark repetition: one engine seed of one workload, in a fresh
process, so that ``ru_maxrss`` is this repetition's own peak.

Prints one JSON record as its last line of output.  A seed that raises
ConfigError or NumericalError is reported in the record (``error``); any other
exception ends the process with a traceback and a non-zero code.

    python3 perfbench/worker.py --workload NAME --engine-seed S --workdir DIR
        [--inputs JSON] [--trace 0|1]
        [--dgemm-gflops R --dpotrf-gflops R]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUTPUT_METRICS = ("a_auc", "routing_accuracy", "final_accuracy")
SETUP_BUDGET_S = 0.5
SETUP_MAX = 20


def _array_bytes(obj) -> int:
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, list) else [value]
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


def _p50_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(summary: dict, state, run_s: float, run_dir: Path,
                  rates: dict) -> dict:
    """The per-layer metrics of one traced repetition.

    Flop and byte counts are computed from shapes, not measured.
    """
    empty = {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0,
             "durations": [], "infos": []}

    def get(name):
        return summary.get(name, empty)

    M = state.config.M
    out: dict[str, float] = {}

    acc = get("router.accumulate")
    gflop = acc["rows"] * M * M / 1e9          # rank-B update: B*M^2 flops
    out["router.accumulate.calls"] = acc["calls"]
    out["router.accumulate.s"] = acc["s"]
    out["router.accumulate.ms_p50"] = _p50_ms(acc["durations"])
    out["router.accumulate.gflop"] = gflop
    out["router.accumulate.floor_frac"] = (
        gflop / (rates["dgemm_gflops"] * acc["s"]) if acc["s"] else 0.0)

    sol = get("router.solve")
    factor_ms = [d for d, info in zip(sol["durations"], sol["infos"])
                 if info["factorized"]]
    factorizations = len(factor_ms)
    out["router.solve.calls"] = sol["calls"]
    out["router.solve.factorizations"] = factorizations
    out["router.solve.cache_hit_frac"] = (
        1.0 - factorizations / sol["calls"] if sol["calls"] else 0.0)
    out["router.solve.s"] = sol["s"]
    out["router.solve.ms_p50"] = _p50_ms(factor_ms)   # factorizing calls
    out["router.solve.floor_frac"] = (
        factorizations * M ** 3 / 3.0 / 1e9 / (rates["dpotrf_gflops"]
                                               * sol["s"])
        if sol["s"] else 0.0)
    out["router.solve.jitter_escalations"] = sum(
        1 for info in sol["infos"] if info.get("jitter", 0.0) > 0.0)

    for name in ("router.route", "expansion.expand"):
        entry = get(name)
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.rows"] = entry["rows"]
        out[f"{name}.s"] = entry["s"]
    out["expansion.build.s"] = get("expansion.build")["s"]

    out["stream.build.s"] = get("stream.build")["s"]
    load = get("stream.load_feature_file")
    file_mb = sum(info["bytes"] for info in load["infos"]) / 1e6
    out["stream.feature_file_mb_per_s"] = (
        file_mb / load["s"] if load["s"] else 0.0)

    out["experts.train_step.calls"] = get("experts.train_step")["calls"]
    out["experts.train_step.s"] = get("experts.train_step")["s"]
    out["experts.spawns"] = get("experts.spawn")["calls"]

    inf = get("ensemble.full_inference")
    out["ensemble.full_inference.calls"] = inf["calls"]
    out["ensemble.full_inference.rows"] = inf["rows"]
    out["ensemble.full_inference.s"] = inf["s"]
    out["ensemble.full_inference.self_s"] = inf["self_s"]

    for step in ("fit_update", "finalize", "route"):
        entry = get(f"baselines.{step}")
        out[f"baselines.{step}.calls"] = entry["calls"]
        out[f"baselines.{step}.s"] = entry["s"]
    out["baselines.state_mb"] = sum(
        _array_bytes(b) for b in state.baselines.values()) / 1e6

    out["metrics.linear_cka.s"] = get("metrics.linear_cka")["s"]
    out["metrics.routing_accuracy.s"] = get("metrics.routing_accuracy")["s"]
    for step in ("setup", "run_batch", "finish_seed", "emit"):
        out[f"harness.{step}.s"] = get(f"harness.{step}")["s"]
    out["harness.emit.bytes"] = sum(
        p.stat().st_size for p in run_dir.iterdir() if p.is_file())

    out["router.gram_mb"] = state.router.gram.nbytes / 1e6

    for layer in spans.LAYERS:
        self_s = sum(entry["self_s"] for name, entry in summary.items()
                     if name.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_frac"] = self_s / run_s
    out["path.write_frac"] = acc["s"] / run_s
    out["path.read_frac"] = (sol["s"] + inf["s"]) / run_s
    return out


def run_rep(name: str, seed: int, inputs: dict, workdir: Path,
            recorder, rates: dict) -> dict:
    from gclstream import harness

    workload = workloads.WORKLOADS[name]
    config = workload.config(seed, inputs)

    # Untraced repetitions set up a few extra times (discarded) for a steady
    # set-up median; the last set-up is the one the repetition runs on.
    setups = []
    while recorder is None and len(setups) < SETUP_MAX and (
            len(setups) < 2 or sum(setups) < SETUP_BUDGET_S):
        started = time.perf_counter()
        harness.SeedRunState(config, seed)
        setups.append(time.perf_counter() - started)

    started = time.perf_counter()
    state = harness.SeedRunState(config, seed)
    setups.append(time.perf_counter() - started)
    train_s = 0.0
    samples = 0
    cursor = state.cursor
    while (batch := cursor.next_batch()) is not None:
        t = time.perf_counter()
        harness.run_batch(state, batch)
        train_s += time.perf_counter() - t
        samples += len(batch[1])
    metrics = harness.finish_seed(state)
    run_dir = workdir / f"seed-{seed}"
    harness._write_outputs(config, {seed: metrics}, {seed: state}, run_dir,
                           {f"seed_{seed}_s": time.perf_counter() - started})
    run_s = time.perf_counter() - started

    failures = []
    streamed = int(state.streamed.sum())
    if streamed != state.schedule.total_train:
        failures.append(f"streamed {streamed} of "
                        f"{state.schedule.total_train} training samples")
    if state.streamed[state.holdout_ids].any():
        failures.append("held-out samples were streamed")
    if state.router.samples_seen != samples:
        failures.append(f"router saw {state.router.samples_seen} samples, "
                        f"stream yielded {samples}")
    missing = [k for k in OUTPUT_METRICS if k not in metrics]
    if missing:
        failures.append(f"metrics missing: {missing}")

    record = {
        "setup_s": statistics.median(setups),
        "setups": setups,
        "train_s": train_s,
        "samples": samples,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": {k: metrics[k] for k in OUTPUT_METRICS if k in metrics},
        "check_failures": failures,
        "run_dir": str(run_dir),
    }
    if recorder is not None:
        recorder.uninstall()
        record["layers"] = layer_metrics(recorder.summary(), state, run_s,
                                         run_dir, rates)
        record["trace_missing"] = recorder.missing
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--engine-seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--inputs", default="{}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dgemm-gflops", type=float, default=0.0)
    parser.add_argument("--dpotrf-gflops", type=float, default=0.0)
    args = parser.parse_args(argv)

    from gclstream.errors import ConfigError, NumericalError

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install()
    rates = {"dgemm_gflops": args.dgemm_gflops,
             "dpotrf_gflops": args.dpotrf_gflops}
    record = {"seed": args.engine_seed, "traced": bool(args.trace)}
    try:
        record.update(run_rep(args.workload, args.engine_seed,
                              json.loads(args.inputs), args.workdir,
                              recorder, rates))
    except (ConfigError, NumericalError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
