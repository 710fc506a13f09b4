"""The golden-output configurations, and the script that re-pins them.

``tests/test_golden.py`` runs every configuration below and compares its data
outputs with ``tests/golden.json``: the sha256 of ``predictions.jsonl``,
``anytime.csv``, ``session_matrix.csv`` and of ``metrics.csv`` without its
``cka_*`` rows, which must match exactly, and the ``cka_*`` rows themselves,
which must match to 1e-12.  CKA reads the trained adapter scales, and other
BLAS kernels (``OPENBLAS_CORETYPE``) move those by ulps; every other output
is an argmax or a ratio of counts, so it is byte-identical across kernels and
thread counts.

Rewriting the file is a re-pin: say in CHANGES.md which outputs moved and
why.  Run from the repository root:

    PYTHONPATH=src python tests/regen_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
HASHED = ("predictions.jsonl", "anytime.csv", "session_matrix.csv",
          "metrics.csv")
CKA_ATOL = 1e-12

ALL_BASELINES = ("prototype", "naive_bayes", "kmeans", "trained_shallow")
# The test suite's seconds-scale stream.
FAST_STREAM = {"num_classes": 6, "sessions": 3, "samples_per_class": 30,
               "batch_size": 12, "eval_interval": 4, "d": 8}
FAST_CONFIG = {"M": 64, "lam": 100.0, "cka_probe": 32}
# The feature file of the d=256 configuration, written by the run.
FEATURE_STREAM = {**FAST_STREAM, "d": 256}

# name -> (seeds, stream overrides, config overrides).  "features" in the
# stream overrides reads FEATURE_STREAM from a feature file.
CONFIGS = {
    "all_baselines": ((1, 2, 3), {}, {"track_baselines": ALL_BASELINES}),
    "kmeans": ((1, 2), {}, {"routing": "kmeans"}),
    "trained_shallow": ((1, 2), {}, {"routing": "trained_shallow",
                                     "track_baselines": ("prototype",)}),
    "oracle": ((1, 2), {}, {"routing": "oracle"}),
    "single_latest": ((1, 2), {}, {"routing": "latest",
                                   "multi_expert": False, "ema_decays": ()}),
    "features_d256": ((1, 2), {"features": True, "eval_interval": 1},
                      {"track_baselines": ALL_BASELINES}),
    "sample_budget": ((1, 2), {}, {"spawn_policy": "sample_budget",
                                   "spawn_budget": 40}),
    "noisy_min_entropy": ((1,), {"noise_scale": 2.0},
                          {"aggregation": "min_entropy"}),
    # At M=2 about a fifth of the held-out rows expand to zero and score 0
    # for every expert, so the ridge router's tie rule (lowest id) picks.
    "ridge_ties_M2": ((1, 2), {}, {"M": 2}),
}


def digest(run_dir: Path) -> dict:
    """The golden entry of one run directory."""
    entry = {}
    cka = {}
    for name in HASHED:
        data = (run_dir / name).read_bytes()
        if name == "metrics.csv":
            kept = []
            for line in data.decode().splitlines(keepends=True):
                seed, metric, value = line.rstrip("\n").split(",")
                if metric.startswith("cka_"):
                    cka[f"{seed},{metric}"] = float(value)
                else:
                    kept.append(line)
            data = "".join(kept).encode()
        entry[name] = hashlib.sha256(data).hexdigest()
    entry["cka"] = cka
    return entry


def golden_run(name: str, workdir: Path) -> dict:
    """Run configuration ``name`` under ``workdir``; its golden entry."""
    from gclstream.harness import desk_config, run
    from gclstream.stream import (StreamConfig, SyntheticBackbone,
                                  write_feature_file)

    seeds, stream, overrides = CONFIGS[name]
    stream = {**FAST_STREAM, **stream}
    if stream.pop("features", False):
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "features.csv"
        write_feature_file(path, SyntheticBackbone(
            StreamConfig(**FEATURE_STREAM)))
        stream.update(d=FEATURE_STREAM["d"], feature_file=str(path))
    config = desk_config(**{**FAST_CONFIG, **overrides}, stream=stream,
                         seeds=seeds, outdir=str(workdir))
    return digest(Path(run(config).run_dir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: golden_run(name, Path(tmp) / name)
                  for name in CONFIGS}
    args.out.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {args.out}: {len(golden)} configurations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
