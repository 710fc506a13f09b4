"""Benchmark entry point: one workload, time-boxed, checked, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the engine is imported from
``src/``).  The run generates the workload's inputs from ``--seed``,
calibrates the machine's dgemm/dpotrf rates at the workload's M, then repeats
the workload over engine seeds ``1000*N + k`` (k = 0, 1, ...), each in a fresh
worker process and one after another, until ``--seconds`` have passed and at
least the minimum number of repetitions has run.  Every repetition's outputs
are checked (see ``check_rep``).

``--trace 0`` reports the end-to-end metrics: medians over repetitions for
the timings and peak RSS, the mean over the first repetitions for the
accuracies.  ``--trace 1`` runs each engine seed twice, untraced and then with
every layer's public functions wrapped in spans, and reports the per-layer
metrics (medians over traced repetitions) plus the tracing overhead.

The last line of output is ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only if every repetition ran and passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

DEADLINE_S = 165.0      # a run must end within 180 s
REP_TIMEOUT_S = 120.0
MIN_TRACED_PAIRS = 2
MAX_REPS = 40

E2E_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "a_auc": "fraction",
    "routing_accuracy": "fraction",
}


def _engine_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_worker(args, seed: int, inputs: dict, workdir: Path, traced: bool,
               rates: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--engine-seed", str(seed),
           "--workdir", str(workdir), "--inputs", json.dumps(inputs),
           "--trace", str(int(traced)),
           "--dgemm-gflops", repr(rates["dgemm_gflops"]),
           "--dpotrf-gflops", repr(rates["dpotrf_gflops"])]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, env=_engine_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "traced": traced,
                "error": f"worker timed out after {timeout:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"seed": seed, "traced": traced,
                "error": f"worker exited with code {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"seed": seed, "traced": traced,
                "error": f"worker printed no record: {lines[-1][:200]!r}"}


def recompute_cli(run_dir: str) -> str | None:
    """Run the public `gclstream metrics --run-dir` recompute; None if ok."""
    proc = subprocess.run(
        [sys.executable, "-m", "gclstream", "metrics", "--run-dir", run_dir],
        capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        env=_engine_env(), cwd=ROOT)
    if proc.returncode != 0:
        return (f"`gclstream metrics` exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}")
    if "MISMATCH" in proc.stdout:
        return "`gclstream metrics` reported a MISMATCH"
    return None


def check_rep(workloads, name: str, rep: dict) -> list[str]:
    """Problems with one repetition's outputs; empty when it is correct."""
    if "error" in rep:
        return [rep["error"]]
    problems = list(rep["check_failures"])
    got = rep["metrics"]
    for key, want in workloads.REFERENCE[name].get(rep["seed"], {}).items():
        if abs(got.get(key, float("nan")) - want) <= workloads.REFERENCE_TOL:
            continue
        problems.append(f"{key}={got.get(key)} differs from the pinned "
                        f"{want} (tolerance {workloads.REFERENCE_TOL})")
    for key, floor in workloads.FLOORS[name].items():
        if not floor <= got.get(key, float("nan")) <= 1.0:
            problems.append(f"{key}={got.get(key)} outside [{floor}, 1]")
    if workloads.WORKLOADS[name].recompute_cli and not problems:
        problem = recompute_cli(rep["run_dir"])
        if problem:
            problems.append(problem)
    return problems


def e2e_metrics(workloads, reps: list[dict]) -> dict:
    ok = [r for r in reps if not r["problems"]]
    if not ok:
        return {}
    first = sorted(ok, key=lambda r: r["rep"])[:workloads.ACCURACY_REPS]
    values = {
        "setup_s": statistics.median(s for r in ok for s in r["setups"]),
        "train_samples_per_s": statistics.median(
            r["samples"] / r["train_s"] for r in ok),
        "run_s": statistics.median(r["run_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "a_auc": statistics.fmean(r["metrics"]["a_auc"] for r in first),
        "routing_accuracy": statistics.fmean(
            r["metrics"]["routing_accuracy"] for r in first),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(plain: list[dict], traced: list[dict], rates: dict) -> dict:
    ok = [r for r in traced if not r["problems"]]
    if not ok:
        return {}
    names = ok[0]["layers"]
    values = {k: statistics.median(r["layers"][k] for r in ok) for k in names}
    plain_ok = [r for r in plain if not r["problems"]]
    if plain_ok:
        values["trace.overhead_frac"] = (
            statistics.median(r["run_s"] for r in ok)
            / statistics.median(r["run_s"] for r in plain_ok) - 1.0)
    values["calib.dgemm_gflops"] = rates["dgemm_gflops"]
    values["calib.dpotrf_gflops"] = rates["dpotrf_gflops"]
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last.endswith("_frac"):
        return "fraction"
    if last.endswith("gflops"):
        return "GFLOP/s"
    return {"ms_p50": "ms", "gflop": "GFLOP", "bytes": "bytes",
            "state_mb": "MB", "gram_mb": "MB",
            "feature_file_mb_per_s": "MB/s"}.get(last, "count")


def measure(args, workloads, rep: int, seed: int, inputs: dict,
            workdir: Path, traced: bool, rates: dict, timeout: float) -> dict:
    """One checked repetition; its run directory is removed afterwards."""
    record = run_worker(args, seed, inputs, workdir, traced, rates, timeout)
    record["rep"] = rep
    record["problems"] = check_rep(workloads, args.workload, record)
    if "run_dir" in record:
        shutil.rmtree(record["run_dir"], ignore_errors=True)
    if record.get("trace_missing"):
        print(f"# not traced, not found in the engine: "
              f"{record['trace_missing']}")
    return record


def _describe(rep: dict) -> str:
    tag = "traced" if rep.get("traced") else "plain"
    head = f"rep {rep['rep']} seed {rep['seed']} {tag}"
    if "error" in rep:
        return f"{head}: FAILED {rep['error']}"
    m = rep["metrics"]
    body = (f"setup {rep['setup_s']:.4f}s run {rep['run_s']:.3f}s "
            f"train {rep['samples'] / rep['train_s']:.1f} samples/s "
            f"rss {rep['peak_rss_mb']:.1f}MB "
            + " ".join(f"{k}={v!r}" for k, v in m.items()))
    status = "ok" if not rep["problems"] else "FAILED " + "; ".join(
        rep["problems"])
    return f"{head}: {body} [{status}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gclstream" / "__init__.py").is_file():
        print(f"error: engine sources not found under {ROOT / 'src'}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    # BLAS threads never exceed the cores this process may use; set before
    # numpy loads, and inherited by every worker.
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(ROOT / "src"))
    import calibrate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    began = time.perf_counter()

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = (workload.make_inputs(args.seed, workdir)
                  if workload.make_inputs else {})
        M = workload.config(workloads.engine_seed(args.seed, 0), inputs).M
        rates = calibrate.rates(M)
        print("# calibration (computed flop counts; best of repeats): "
              + json.dumps({**calibrate.environment(), **rates}))

        plain: list[dict] = []
        traced: list[dict] = []
        clock = time.perf_counter()
        slowest = 0.0
        rep = 0
        min_reps = (MIN_TRACED_PAIRS if args.trace
                    else workloads.ACCURACY_REPS)
        while rep < MAX_REPS:
            if time.perf_counter() - clock >= args.seconds and rep >= min_reps:
                break
            left = DEADLINE_S - (time.perf_counter() - began)
            if rep and left < slowest * 1.2:
                break
            started = time.perf_counter()
            seed = workloads.engine_seed(args.seed, rep)
            timeout = min(REP_TIMEOUT_S, max(left, 1.0))
            record = measure(args, workloads, rep, seed, inputs, workdir,
                             False, rates, timeout)
            plain.append(record)
            print(_describe(record))
            if args.trace:
                twin = measure(args, workloads, rep, seed, inputs, workdir,
                               True, rates, timeout)
                if not (record["problems"] or twin["problems"]
                        or twin["metrics"] == record["metrics"]):
                    twin["problems"].append(
                        "traced outputs differ from untraced ones")
                traced.append(twin)
                print(_describe(twin))
            slowest = max(slowest, time.perf_counter() - started)
            rep += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    failed = sum(1 for r in reps if r["problems"])
    e2e = e2e_metrics(workloads, plain)
    for key, entry in e2e.items():
        print(f"{args.workload} {key} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} failed_frac = {failed / len(reps):.6g} fraction "
          f"({failed} of {len(reps)} repetitions)")
    metrics = layer_metrics(plain, traced, rates) if args.trace else e2e
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
