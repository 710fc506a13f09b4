"""Command-line harness.

Subcommands: ``run`` a configured experiment over its seed list; ``ablate``
one axis with everything else fixed; ``gen-features`` to export the synthetic
backbone as a feature file; ``metrics`` to recompute a run's metrics from its
logged predictions and check them against the stored CSV, and its config
hash against the stored config.

Configuration comes from an optional JSON file plus repeated ``--set
key=value`` overrides (dotted keys reach into the stream block; CLI wins).
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .errors import ConfigError, NumericalError, parse_json
from .harness import (ABLATION_AXES, RunConfig, ablate, apply_overrides,
                      config_dict_hash, config_from_dict, config_to_dict,
                      dataclass_from_dict, desk_config, merge_config, run)
from .metrics import check_log, replay
from .stream import StreamConfig, SyntheticBackbone, write_feature_file


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_config_args(sub):
    sub.add_argument("--config", type=str, default=None,
                     help="JSON config file (keys mirror RunConfig)")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     dest="overrides",
                     help="override a config key (dotted keys reach the "
                          "stream block); repeatable, wins over the file")
    sub.add_argument("--preset", choices=("desk", "paper"), default="desk",
                     help="base defaults: desk-scale synthetic (M=1024) or "
                          "full-scale (M=10000)")
    sub.add_argument("--outdir", type=str, default=None)
    sub.add_argument("--seeds", type=str, default=None,
                     help="comma-separated seed list, e.g. 1,2,3")


def _build_config(args) -> RunConfig:
    base = config_to_dict(desk_config() if args.preset == "desk"
                          else RunConfig())
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {args.config!r}")
        file_data = parse_json(path.read_text(), str(path))
        if not isinstance(file_data, dict):
            raise ConfigError(f"{path}: holds no JSON object")
        merge_config(base, file_data)
    apply_overrides(base, args.overrides)
    if args.outdir is not None:
        base["outdir"] = args.outdir
    if args.seeds is not None:
        try:
            base["seeds"] = [int(s) for s in args.seeds.split(",") if s]
        except ValueError as err:
            raise ConfigError(f"--seeds {args.seeds!r} is not a "
                              "comma-separated list of ints") from err
    return config_from_dict(base)


def _cmd_run(args) -> int:
    config = _build_config(args)
    result = run(config)
    print(result.summary())
    print(f"outputs: {result.run_dir}")
    return 0


def _cmd_ablate(args) -> int:
    config = _build_config(args)
    results = ablate(config, args.axis)
    for name, result in results:
        print(f"{name}: {result.summary()}")
    print(f"outputs: {Path(config.outdir) / f'ablate_{args.axis}'}")
    return 0


def _cmd_gen_features(args) -> int:
    data = apply_overrides({}, args.overrides)
    outside = sorted(set(data) - {"stream"})
    if outside:
        raise ConfigError(f"gen-features takes only stream.* keys, not "
                          f"{outside}")
    stream = dataclass_from_dict(StreamConfig, data.get("stream", {}),
                                 "stream.")
    source = SyntheticBackbone(stream)
    write_feature_file(args.out, source)
    print(f"wrote {args.out}: d={source.d} classes={source.num_classes} "
          f"rows={len(source.labels)}")
    return 0


def _check_config_hash(run_dir: Path) -> int:
    """Print whether config.json's ``config_hash`` is the hash of its
    ``config``; returns 1 on a mismatch, else 0."""
    path = run_dir / "config.json"
    if not path.exists():
        print("config_hash: not checked, no config.json")
        return 0
    payload = parse_json(path.read_text(), str(path))
    if not (isinstance(payload, dict)
            and isinstance(payload.get("config"), dict)
            and isinstance(payload.get("config_hash"), str)):
        raise ConfigError(f"{path}: holds no config and config_hash")
    stored = payload["config_hash"]
    value = config_dict_hash(payload["config"])
    print(f"config_hash {stored[:12]}: the config hashes to {value[:12]} "
          f"[{'ok' if value == stored else 'MISMATCH'}]")
    return int(value != stored)


def _cmd_metrics(args) -> int:
    run_dir = Path(args.run_dir)
    pred_path = run_dir / "predictions.jsonl"
    if not pred_path.exists():
        raise ConfigError(f"no predictions.jsonl under {run_dir}")
    with open(pred_path) as fh:
        records = [parse_json(line, f"{pred_path}:{number}")
                   for number, line in enumerate(fh, start=1)]
    blocks = check_log(records, lambda i: f"{pred_path}:{i + 1}")

    stored: dict[str, dict[str, float]] = {}  # seed -> metric -> value
    metrics_path = run_dir / "metrics.csv"
    if metrics_path.exists():
        lines = metrics_path.read_text().splitlines()
        for number, line in enumerate(lines[1:], start=2):
            try:
                seed, metric, value = line.split(",")
                stored.setdefault(seed, {})[metric] = float(value)
            except ValueError as err:
                raise ConfigError(f"{metrics_path}:{number}: not "
                                  f"seed,metric,value ({err})") from err

    mismatches = _check_config_hash(run_dir)
    for seed, (meta, records) in sorted(blocks.items()):
        rows = stored.get(str(seed), {})
        for metric, value in replay(records, meta)[1].items():
            line = f"seed {seed} {metric}: recomputed {value:.6f}"
            if metric in rows:
                want = rows.pop(metric)
                mismatches += want != value
                line += (f" stored {want:.6f} "
                         f"[{'ok' if want == value else 'MISMATCH'}]")
            print(line)
    for seed, rows in stored.items():  # what is left was not recomputed
        if seed not in ("mean", "std") and rows:
            print(f"seed {seed} unchecked: {', '.join(rows)}")
    if mismatches:
        raise NumericalError(f"{mismatches} stored values differ from "
                             "those recomputed from the run directory")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="gclstream",
                     description="continual-learning stream engine")
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("run", parents=[], help="run an experiment")
    _add_config_args(sub)
    sub.set_defaults(fn=_cmd_run)

    sub = commands.add_parser("ablate", help="sweep one ablation axis")
    sub.add_argument("--axis", required=True, choices=ABLATION_AXES)
    _add_config_args(sub)
    sub.set_defaults(fn=_cmd_ablate)

    sub = commands.add_parser("gen-features",
                              help="export synthetic features to a file")
    sub.add_argument("--out", required=True)
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                     dest="overrides")
    sub.set_defaults(fn=_cmd_gen_features)

    sub = commands.add_parser("metrics",
                              help="recompute metrics from logged predictions")
    sub.add_argument("--run-dir", required=True)
    sub.set_defaults(fn=_cmd_metrics)

    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("gclstream").info(
            "BLAS: %s", " ".join(
                f"{name}={os.environ.get(name, 'unset')}" for name in
                ("OPENBLAS_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")))
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
