"""Command-line interface: subcommands, overrides, and exit codes."""

import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gclstream
from gclstream.cli import main
from gclstream.stream import (StreamConfig, SyntheticBackbone,
                              load_feature_file, write_feature_file)


# The facts a meta line carries besides its seed and classes, as the tail of
# its JSON object.
META_FACTS = (', "eval_interval": 4, "session_batches": [5, 4, 4],'
              ' "session_records": true, "oracle_record": false,'
              ' "logged": true')


def _tiny_overrides():
    """--set flags for a seconds-scale run."""
    pairs = ["stream.num_classes=6", "stream.sessions=3",
             "stream.samples_per_class=30", "stream.batch_size=12",
             "stream.eval_interval=4", "stream.d=8", "M=64", "lam=100.0",
             "track_oracle=false", "cka_probe=32"]
    out = []
    for pair in pairs:
        out.extend(["--set", pair])
    return out


class TestRunCommand:
    def test_run_exits_zero_and_writes_outputs(self, tmp_path, capsys):
        rc = main(["run", *_tiny_overrides(),
                   "--outdir", str(tmp_path), "--seeds", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "outputs:" in printed and "a_auc=" in printed
        run_dirs = list(tmp_path.glob("run-*"))
        assert len(run_dirs) == 1
        for name in ("config.json", "metrics.csv", "predictions.jsonl"):
            assert (run_dirs[0] / name).exists()

    def test_seed_list_and_override_precedence(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"lam": 50.0, "M": 64, "track_oracle": False, "cka_probe": 32,
             "stream": {"num_classes": 6, "sessions": 3,
                        "samples_per_class": 30, "batch_size": 12,
                        "eval_interval": 4, "d": 8}}))
        rc = main(["run", "--config", str(cfg_file), "--set", "lam=75.0",
                   "--outdir", str(tmp_path), "--seeds", "1,2"])
        assert rc == 0
        run_dir = next(tmp_path.glob("run-*"))
        payload = json.loads((run_dir / "config.json").read_text())
        assert payload["config"]["lam"] == 75.0
        assert payload["config"]["seeds"] == [1, 2]
        lines = (run_dir / "metrics.csv").read_text().splitlines()
        seeds = {line.split(",")[0] for line in lines[1:]}
        assert {"1", "2", "mean", "std"} <= seeds

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gclstream", "run", *_tiny_overrides(),
             "--outdir", str(tmp_path), "--seeds", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "outputs:" in proc.stdout


class TestBlasSettings:
    """The engine's BLAS spin-wait default, checked in fresh interpreters
    because OpenBLAS reads it only when numpy loads."""

    @staticmethod
    def _env(timeout):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_THREAD_TIMEOUT"}
        if timeout is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = timeout
        src = str(Path(gclstream.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])])
        return env

    @pytest.mark.parametrize("given, kept", [(None, "22"), ("7", "7")])
    def test_import_sets_the_default_and_keeps_a_given_value(self, given,
                                                             kept):
        proc = subprocess.run(
            [sys.executable, "-c", "import os, gclstream; "
             "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"],
            capture_output=True, text=True, env=self._env(given))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == kept

    @pytest.mark.parametrize("imports, given, warnings", [
        ("numpy, gclstream", None, 1),   # numpy's OpenBLAS loaded unset
        ("gclstream, numpy", None, 0),
        ("numpy, gclstream", "22", 0),
    ])
    def test_numpy_loaded_first_without_the_timeout_warns_once(
            self, imports, given, warnings):
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-c", f"import {imports}"],
            capture_output=True, text=True, env=self._env(given))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("RuntimeWarning") == warnings, proc.stderr
        if warnings:
            assert "OPENBLAS_THREAD_TIMEOUT" in proc.stderr
            assert "import gclstream before numpy" in proc.stderr

    @staticmethod
    def _data_files(outdir: Path, env: dict, *args) -> dict:
        """The data files of one ``gclstream run`` in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-m", "gclstream", "run", "--seeds", "1",
             "--outdir", str(outdir), *args],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        run_dir = next(outdir.glob("run-*"))
        return {name: (run_dir / name).read_bytes() for name in (
            "metrics.csv", "anytime.csv", "session_matrix.csv",
            "predictions.jsonl")}

    def test_outputs_do_not_depend_on_the_timeout(self, tmp_path):
        a, b = (self._data_files(tmp_path / str(timeout), self._env(timeout))
                for timeout in (None, "28"))  # the engine's, OpenBLAS's own
        assert a == b

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        """A d=256 feature-file run, where BLAS splits the big products
        between threads, writes the same bytes under one and two threads."""
        self._assert_thread_count_free(tmp_path, {
            "d": 256, "num_classes": 6, "samples_per_class": 40,
            "sessions": 3})

    def test_primal_solves_do_not_depend_on_the_thread_count(self, tmp_path):
        """The same with 480 rows into M=256, solved after every 32-row
        batch: the router folds into G, factors it, and then solves by the
        Woodbury identity through the held factor, refactoring once the
        kept rows pass their cap."""
        self._assert_thread_count_free(tmp_path, {
            "d": 256, "num_classes": 6, "samples_per_class": 100,
            "sessions": 3, "batch_size": 32, "eval_interval": 1})

    def _assert_thread_count_free(self, tmp_path, stream):
        features = tmp_path / "features.csv"
        write_feature_file(features, SyntheticBackbone(StreamConfig(**stream)))
        args = ["--set", f"stream.feature_file={features}", "--set", "M=256"]
        for key, value in stream.items():
            args += ["--set", f"stream.{key}={value}"]
        a, b = (self._data_files(tmp_path / threads, {
            **self._env(None), "OPENBLAS_NUM_THREADS": threads}, *args)
            for threads in ("1", "2"))
        assert a == b

    # Seed 1 of the config file argv[1]: checkpointed three quarters of the
    # way through to argv[2], or, given a run directory argv[3], resumed
    # from argv[2], finished and emitted there.
    _CHECKPOINT_OR_RESUME = """
import json, sys
from pathlib import Path
from gclstream.harness import (SeedRunState, _write_outputs, checkpoint,
                               config_from_dict, resume, run_batch, run_seed)
config = config_from_dict(json.loads(Path(sys.argv[1]).read_text()))
if len(sys.argv) == 3:
    state = SeedRunState(config, 1)
    for _ in range(len(state.schedule.batches) * 3 // 4):
        run_batch(state, state.cursor.next_batch())
    checkpoint(state, sys.argv[2])
else:
    metrics, state = run_seed(config, 1, state=resume(sys.argv[2], config))
    _write_outputs(config, {1: metrics}, {1: state}, Path(sys.argv[3]), {})
"""

    def test_a_checkpoint_resumes_under_another_thread_count(self, tmp_path):
        """``resume`` accepts a checkpoint only if its rerun writes the
        stored log byte for byte: one written under two threads, past the
        fold into G at M=256, resumes under one to the uninterrupted run's
        metrics."""
        features, config = tmp_path / "features.csv", tmp_path / "cfg.json"
        stream = {"d": 256, "num_classes": 6, "samples_per_class": 100,
                  "sessions": 3, "batch_size": 32, "eval_interval": 1}
        write_feature_file(features, SyntheticBackbone(StreamConfig(**stream)))
        config.write_text(json.dumps({"M": 256, "seeds": [1], "stream": {
            **stream, "feature_file": str(features)}}))
        path, run_dir = tmp_path / "ck.npz", tmp_path / "resumed"
        for threads, args in (("2", [path]), ("1", [path, run_dir])):
            proc = subprocess.run(
                [sys.executable, "-c", self._CHECKPOINT_OR_RESUME, config,
                 *args], capture_output=True, text=True,
                env={**self._env(None), "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
        direct = self._data_files(tmp_path / "direct", {
            **self._env(None), "OPENBLAS_NUM_THREADS": "1"},
            "--config", str(config))
        assert (run_dir / "metrics.csv").read_bytes() == direct["metrics.csv"]

    def test_verbose_logs_the_blas_settings(self, tmp_path, caplog,
                                            monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", "8")
        caplog.set_level(logging.INFO, logger="gclstream")
        rc = main(["-v", "gen-features", "--out",
                   str(tmp_path / "features.csv"),
                   "--set", "stream.num_classes=2",
                   "--set", "stream.samples_per_class=5"])
        assert rc == 0
        blas = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("BLAS:")]
        assert blas == ["BLAS: OPENBLAS_NUM_THREADS=2 "
                        "OPENBLAS_THREAD_TIMEOUT=8"]


class TestAblateCommand:
    def test_mask_axis_writes_combined_csv(self, tmp_path, capsys):
        rc = main(["ablate", "--axis", "mask", *_tiny_overrides(),
                   "--set", "log_predictions=false",
                   "--set", "eval_session_matrix=false",
                   "--outdir", str(tmp_path), "--seeds", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "batch_seen_class:" in printed
        csv_path = tmp_path / "ablate_mask" / "ablate_mask.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "cell,seed,metric,value"


class TestGenFeaturesCommand:
    def test_written_file_loads_with_declared_shape(self, tmp_path, capsys):
        out = tmp_path / "features.csv"
        rc = main(["gen-features", "--out", str(out),
                   "--set", "stream.num_classes=4",
                   "--set", "stream.samples_per_class=10",
                   "--set", "stream.d=5"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        source = load_feature_file(out)
        assert source.d == 5
        assert source.num_classes == 4
        assert len(source.labels) == 40
        assert np.isfinite(source.features(np.arange(40))).all()

    def test_stream_seed_sets_the_exported_backbone(self, tmp_path):
        """gen-features builds the stream config itself, so its
        ``stream.seed`` is the one seed it has and picks the features."""
        features = []
        for seed in (1, 3):
            out = tmp_path / f"features{seed}.csv"
            assert main(["gen-features", "--out", str(out),
                         "--set", "stream.num_classes=2",
                         "--set", "stream.samples_per_class=5",
                         "--set", f"stream.seed={seed}"]) == 0
            features.append(load_feature_file(out).features(np.arange(10)))
        assert not np.array_equal(*features)


class TestMetricsCommand:
    def _run_once(self, tmp_path) -> Path:
        rc = main(["run", *_tiny_overrides(),
                   "--outdir", str(tmp_path), "--seeds", "1"])
        assert rc == 0
        return next(tmp_path.glob("run-*"))

    def test_clean_run_verifies(self, tmp_path, capsys):
        run_dir = self._run_once(tmp_path)
        rc = main(["metrics", "--run-dir", str(run_dir)])
        assert rc == 0
        assert "[ok]" in capsys.readouterr().out

    def test_tampered_store_is_a_numerical_failure(self, tmp_path, capsys):
        run_dir = self._run_once(tmp_path)
        csv_path = run_dir / "metrics.csv"
        lines = csv_path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("1,a_auc,"):
                lines[i] = "1,a_auc,0.123456"
                break
        csv_path.write_text("\n".join(lines) + "\n")
        rc = main(["metrics", "--run-dir", str(run_dir)])
        assert rc == 2
        assert "MISMATCH" in capsys.readouterr().out

    def test_missing_metrics_csv_is_a_config_error_naming_it(self, tmp_path,
                                                              capsys):
        run_dir = self._run_once(tmp_path)
        (run_dir / "metrics.csv").unlink()
        capsys.readouterr()
        rc = main(["metrics", "--run-dir", str(run_dir)])
        assert rc == 1
        assert f"no metrics.csv under {run_dir}" in capsys.readouterr().err

    def test_recomputed_metric_the_store_lacks_is_a_mismatch(self, tmp_path,
                                                             capsys):
        run_dir = self._run_once(tmp_path)
        csv_path = run_dir / "metrics.csv"
        lines = [line for line in csv_path.read_text().splitlines()
                 if not line.startswith("1,a_auc,")]
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["metrics", "--run-dir", str(run_dir)])
        assert rc == 2
        out = capsys.readouterr().out
        assert re.search(r"^seed 1 a_auc: recomputed \S+ not stored "
                         r"\[MISMATCH\]$", out, re.M)

    def test_config_one_ulp_off_its_hash_is_a_mismatch(self, tmp_path,
                                                       capsys):
        """config.json's config_hash must be the hash of its config: a
        one-ulp edit to lam is a MISMATCH (exit 2), the metrics still ok."""
        run_dir = self._run_once(tmp_path)
        path = run_dir / "config.json"
        payload = json.loads(path.read_text())
        payload["config"]["lam"] = float(np.nextafter(payload["config"]["lam"],
                                                      np.inf))
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        capsys.readouterr()
        assert main(["metrics", "--run-dir", str(run_dir)]) == 2
        out = capsys.readouterr().out
        flagged = [line for line in out.splitlines() if "MISMATCH" in line]
        assert len(flagged) == 1 and flagged[0].startswith("config_hash ")
        assert "[ok]" in out

    def test_run_directory_named_by_another_hash_is_a_mismatch(
            self, tmp_path, capsys):
        """A ``run-<12 hex>`` name must be the config_hash prefix: the run
        copied to run-000000000000 exits 2, its metrics still ok."""
        copy = tmp_path / "copies" / "run-000000000000"
        shutil.copytree(self._run_once(tmp_path), copy)
        capsys.readouterr()
        assert main(["metrics", "--run-dir", str(copy)]) == 2
        out = capsys.readouterr().out
        flagged = [line for line in out.splitlines() if "MISMATCH" in line]
        assert len(flagged) == 1
        assert flagged[0].startswith("directory run-000000000000: "
                                     "config_hash prefix ")
        assert "[ok]" in out

    def test_other_directory_names_are_not_checked(self, tmp_path, capsys):
        copy = tmp_path / "seed-1"
        shutil.copytree(self._run_once(tmp_path / "runs"), copy)
        capsys.readouterr()
        assert main(["metrics", "--run-dir", f"{copy}/"]) == 0
        out = capsys.readouterr().out
        assert "directory seed-1: name not checked, not run-<12 hex>" in out
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("text", ["[1]", '{"config": {}}',
                                      '{"config": 1, "config_hash": "a"}'])
    def test_config_json_without_config_and_hash_is_a_config_error(
            self, tmp_path, capsys, text):
        run_dir = self._run_once(tmp_path)
        (run_dir / "config.json").write_text(text)
        capsys.readouterr()
        assert main(["metrics", "--run-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "config.json" in err

    def test_run_without_config_json_says_the_hash_was_not_checked(
            self, tmp_path, capsys):
        run_dir = self._run_once(tmp_path)
        (run_dir / "config.json").unlink()
        capsys.readouterr()
        assert main(["metrics", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "config_hash: not checked, no config.json"
        assert "MISMATCH" not in out

    def test_missing_predictions_is_a_config_error(self, tmp_path):
        rc = main(["metrics", "--run-dir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("bad, why", [
        ("{not json", "not JSON"),
        ('{"phase": "final", "seed": 9}',
         "final record lacks labels, predictions, selections"),
        ('{"phase": "final", "seed": 9, "labels": [0], "predictions": [0],'
         ' "selections": [0]}', "seed 9's final record is outside that "
         "seed's block"),
        ('{"seed": 1}', "not a record with a phase"),
        ("[1, 2]", "not a record with a phase"),
        ('{"phase": ["meta"], "seed": 1}', "unexpected phase ['meta']"),
        ('{"phase": "final", "seed": [1], "labels": [0], "predictions": [0],'
         ' "selections": [0]}', "seed [1]'s final record is outside that "
         "seed's block"),
        ('{"phase": "meta", "seed": [1], "session_classes": [[0]],'
         f' "history": [[0]]{META_FACTS}}}', "meta record's seed does not "
         "have type int"),
        ('{"phase": "meta", "seed": 1, "session_classes": [[0]],'
         f' "history": 5{META_FACTS}}}', "meta record's history does not "
         "have type tuple[tuple[int, ...], ...]"),
        ('{"phase": "meta", "seed": 1, "session_classes": [1, 2, 3],'
         f' "history": [[0]]{META_FACTS}}}', "meta record's session_classes "
         "does not have type tuple[tuple[int, ...], ...]"),
        ('{"phase": "meta", "seed": 1, "session_classes": [[0]],'
         f' "history": [[true]]{META_FACTS}}}', "meta record's history does "
         "not have type tuple[tuple[int, ...], ...]"),
        ('{"phase": "anytime", "seed": 1}',
         "anytime record lacks step, labels, predictions"),
        ('{"phase": "meta", "seed": 1}',
         "meta record lacks session_classes, history, eval_interval, "
         "session_batches, session_records, oracle_record, logged"),
        ('{"phase": "final", "seed": 1, "labels": [0], "selections": [0]}',
         "final record lacks predictions"),
        ('{"phase": "session", "seed": 1, "labels": [0], "predictions": [0],'
         ' "step": 99}', "seed 1's session record 99 comes where session "
         "record 0 is due"),
        ('{"phase": "session", "seed": 1, "labels": [0], "predictions": [0],'
         ' "step": -1}', "seed 1's session record -1 comes where session "
         "record 0 is due"),
        # class 0 is in session 2 only
        ('{"phase": "session", "seed": 1, "labels": [0], "predictions": [0],'
         ' "step": 0}', "session 0 record's labels hold no class of session "
         "0"),
        ('{"phase": "session", "seed": 1, "labels": [[1]], "predictions": [1],'
         ' "step": 0}', "session record's labels does not have type "
         "tuple[int, ...]"),
        ('{"phase": "anytime", "seed": 1, "labels": [[0]], "predictions": [0],'
         ' "step": 1}', "anytime record's labels does not have type "
         "tuple[int, ...]"),
        ('{"phase": "final", "seed": 1, "labels": [0], "predictions": [0],'
         ' "selections": [true]}', "final record's selections does not have "
         "type tuple[int, ...]"),
        ('{"phase": "final", "seed": 1, "labels": [0], "predictions": [0],'
         ' "selections": [99]}', "seed 1's final record comes where session "
         "record 0 is due"),
        ('{"phase": "anytime", "seed": 1, "labels": [0],'
         ' "predictions": [0, 1], "step": 1}',
         "anytime record's labels, predictions are not of one nonzero "
         "length")])
    def test_bad_prediction_line_is_a_config_error_naming_its_line(
            self, tmp_path, capsys, bad, why):
        """Each line is inserted as line 3, where seed 1's session record 0
        is due."""
        run_dir = self._run_once(tmp_path)
        pred_path = run_dir / "predictions.jsonl"
        lines = pred_path.read_text().splitlines()
        lines.insert(2, bad)
        pred_path.write_text("\n".join(lines) + "\n")
        rc = main(["metrics", "--run-dir", str(run_dir)])
        assert rc == 1
        assert f"predictions.jsonl:3: {why}" in capsys.readouterr().err

    def test_final_selection_of_no_expert_is_a_config_error(self, tmp_path,
                                                            capsys):
        run_dir = self._run_once(tmp_path)
        pred_path = run_dir / "predictions.jsonl"
        records = [json.loads(line) for line in pred_path.open()]
        experts = len(records[0]["history"])
        records[-1]["selections"][0] = experts
        pred_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["metrics", "--run-dir", str(run_dir)]) == 1
        assert (f"predictions.jsonl:{len(records)}: final selection "
                f"{experts} outside 0..{experts - 1}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("steps, seen", [
        ((2,), 2),   # the session record of step 2 alone
        ((0,), 0),   # the final record right after step 0
    ])
    def test_skipped_session_step_is_a_config_error_naming_it(
            self, tmp_path, capsys, steps, seen):
        """A log cut to its meta line, some session records and its final
        record is refused at its first record, where an anytime record is
        due, not left to the metrics to trip over."""
        run_dir = self._run_once(tmp_path)
        pred_path = run_dir / "predictions.jsonl"
        records = map(json.loads, pred_path.read_text().splitlines())
        kept = [r for r in records if r["phase"] in ("meta", "final")
                or r["phase"] == "session" and r["step"] in steps]
        pred_path.write_text("".join(json.dumps(r) + "\n" for r in kept))
        rc = main(["metrics", "--run-dir", str(run_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert (f"predictions.jsonl:2: seed 1's session record {seen} comes "
                "where anytime record 1 is due") in err

    @pytest.mark.parametrize("bad", ["1,a_auc", "1,a_auc,high", "1,a,b,0.5"])
    def test_bad_metrics_row_is_a_config_error_naming_its_line(
            self, tmp_path, capsys, bad):
        run_dir = self._run_once(tmp_path)
        csv_path = run_dir / "metrics.csv"
        lines = csv_path.read_text().splitlines()
        lines.insert(2, bad)
        csv_path.write_text("\n".join(lines) + "\n")
        rc = main(["metrics", "--run-dir", str(run_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "metrics.csv:3: not seed,metric,value" in err

    def test_unlogged_run_recomputes_nothing(self, tmp_path, capsys):
        rc = main(["run", *_tiny_overrides(), "--set", "log_predictions=false",
                   "--outdir", str(tmp_path), "--seeds", "1,2"])
        assert rc == 0
        run_dir = next(tmp_path.glob("run-*"))
        capsys.readouterr()
        rc = main(["metrics", "--run-dir", str(run_dir)])
        assert rc == 0
        assert "recomputed" not in capsys.readouterr().out


# The values `metrics` recomputes per seed, each family's rows: the
# seed_metrics suite, the expert count and the oracle's two metrics.
RECOMPUTED = ("a_auc", "a_last", "a_avg", "f_last", "bwt", "final_accuracy",
              "routing_accuracy", "num_experts", "oracle_accuracy",
              "oracle_a_last")


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory) -> Path:
    """One seed with the oracle and the session matrix on."""
    outdir = tmp_path_factory.mktemp("oracle_run")
    rc = main(["run", *_tiny_overrides(), "--set", "track_oracle=true",
               "--outdir", str(outdir), "--seeds", "1"])
    assert rc == 0
    return next(outdir.glob("run-*"))


@pytest.fixture(scope="module")
def two_seed_run(tmp_path_factory) -> Path:
    """Seeds 1 and 2 with the oracle and the session matrix on."""
    outdir = tmp_path_factory.mktemp("two_seed_run")
    rc = main(["run", *_tiny_overrides(), "--set", "track_oracle=true",
               "--outdir", str(outdir), "--seeds", "1,2"])
    assert rc == 0
    return next(outdir.glob("run-*"))


def _verify_cut(run_dir: Path, tmp_path: Path, cut, capsys) -> tuple:
    """`metrics` on a copy of ``run_dir`` whose log lines ``cut`` rewrote:
    its exit code and stderr."""
    copy = tmp_path / run_dir.name
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(run_dir, copy)
    pred_path = copy / "predictions.jsonl"
    lines = cut(pred_path.read_text().splitlines())
    pred_path.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    rc = main(["metrics", "--run-dir", str(copy)])
    return rc, capsys.readouterr().err


def _phase(line: str) -> str:
    return json.loads(line)["phase"]


def _meta_with(**facts):
    def cut(lines):
        return [json.dumps({**json.loads(lines[0]), **facts}), *lines[1:]]
    return cut


class TestCutLogs:
    """Every reader of a log checks it as the exact record sequence its meta
    lines give.  Seed 1's block is lines 1-9: meta, anytime 1, session 0,
    anytime 2, session 1, anytime 3, session 2, final, oracle; seed 2's is
    lines 10-18."""

    def test_untouched_log_verifies(self, two_seed_run, tmp_path, capsys):
        rc, err = _verify_cut(two_seed_run, tmp_path, list, capsys)
        assert rc == 0 and err == ""

    @pytest.mark.parametrize("cut, number, why", [
        # every anytime record dropped
        (lambda lines: [line for line in lines if _phase(line) != "anytime"],
         2, "seed 1's session record 0 comes where anytime record 1 is due"),
        # seed 1's final record appended twice
        (lambda lines: [*lines, lines[7], lines[7]], 19,
         "seed 1's final record is outside that seed's block"),
        # seed 2's final record appended twice, in its own block
        (lambda lines: [*lines[:17], lines[16], lines[16], lines[17]], 18,
         "seed 2's final record comes where oracle record is due"),
        # the meta line repeated before the final record
        (lambda lines: [*lines[:7], lines[0], *lines[7:]], 8,
         "seed 1's final record is missing"),
        # the meta line, the step-2 session record and the final record
        (lambda lines: [lines[0], lines[6], lines[7]], 2,
         "seed 1's session record 2 comes where anytime record 1 is due"),
        # a record after the oracle record
        (lambda lines: [*lines[:9], lines[1], *lines[9:]], 10,
         "seed 1's anytime record 1 comes where no record is due"),
        # session batch counts that disagree with the records
        (_meta_with(session_batches=[3, 6, 4]), 2,
         "seed 1's anytime record 1 comes where session record 0 is due"),
        (_meta_with(session_batches=[5, 4]), 1,
         "seed 1's eval_interval and session_batches are not positive "
         "counts, one per session"),
        (_meta_with(oracle_record=False), 9,
         "seed 1's oracle record comes where no record is due"),
        (lambda lines: lines[:-1], 18, "seed 2's oracle record is missing"),
    ])
    def test_cut_log_is_a_config_error_naming_line_and_seed(
            self, two_seed_run, tmp_path, capsys, cut, number, why):
        rc, err = _verify_cut(two_seed_run, tmp_path, cut, capsys)
        assert rc == 1 and "Traceback" not in err
        assert err.startswith("config error: ")
        assert err.endswith(f"predictions.jsonl:{number}: {why}\n")

    @pytest.mark.parametrize("mutation", ["delete", "duplicate", "swap"])
    def test_every_single_record_mutant_is_refused_at_its_line(
            self, two_seed_run, tmp_path, capsys, mutation):
        """Deleting a line refuses the line that takes its place (or the
        end of the log); a duplicate is refused at its copy; two swapped
        neighbours at the first of them."""
        count = len((two_seed_run / "predictions.jsonl").read_text()
                    .splitlines())
        for i in range(count - (mutation == "swap")):
            cut, number = {
                "delete": (lambda lines: lines[:i] + lines[i + 1:], i + 1),
                "duplicate": (lambda lines: lines[:i + 1] + lines[i:], i + 2),
                "swap": (lambda lines: [*lines[:i], lines[i + 1], lines[i],
                                        *lines[i + 2:]], i + 1),
            }[mutation]
            rc, err = _verify_cut(two_seed_run, tmp_path, cut, capsys)
            assert rc == 1, (mutation, i)
            assert f"predictions.jsonl:{number}: seed " in err, (
                mutation, i, err)


class TestMetricsFamilies:
    """`metrics` compares every value the log determines exactly: one ulp
    off in any of them is a MISMATCH (exit 2); it names each stored row it
    did not check, CKA rows among them."""

    @staticmethod
    def _nudge(run_dir: Path, tmp_path: Path, metric: str) -> Path:
        """A copy of the run with seed 1's ``metric`` one ulp higher."""
        copy = tmp_path / run_dir.name
        shutil.copytree(run_dir, copy)
        csv_path = copy / "metrics.csv"
        lines = csv_path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines)
                   if line.startswith(f"1,{metric},"))
        value = float(lines[row].split(",")[2])
        lines[row] = f"1,{metric},{np.nextafter(value, np.inf):.17g}"
        csv_path.write_text("\n".join(lines) + "\n")
        return copy

    def test_clean_run_checks_ten_values_exactly(self, oracle_run, capsys):
        assert main(["metrics", "--run-dir", str(oracle_run)]) == 0
        hashed, named, *checked, unchecked = (
            capsys.readouterr().out.splitlines())
        assert hashed.startswith("config_hash ") and hashed.endswith("[ok]")
        assert named == (f"directory {oracle_run.name}: config_hash prefix "
                         f"{oracle_run.name[len('run-'):]} [ok]")
        assert [line.split()[2][:-1] for line in checked] == list(RECOMPUTED)
        assert all(line.endswith("[ok]") for line in checked)
        stored = [line.split(",")[1] for line in
                  (oracle_run / "metrics.csv").read_text().splitlines()
                  if line.startswith("1,")]
        assert unchecked == "seed 1 unchecked: " + ", ".join(
            m for m in stored if m not in RECOMPUTED)

    @pytest.mark.parametrize("metric", RECOMPUTED)
    def test_one_ulp_off_is_a_mismatch(self, oracle_run, tmp_path, capsys,
                                       metric):
        run_dir = self._nudge(oracle_run, tmp_path, metric)
        assert main(["metrics", "--run-dir", str(run_dir)]) == 2
        flagged = [line for line in capsys.readouterr().out.splitlines()
                   if "MISMATCH" in line]
        assert len(flagged) == 1 and f" {metric}:" in flagged[0]

    def test_one_ulp_off_in_a_cka_row_is_not_checked(self, oracle_run,
                                                     tmp_path, capsys):
        run_dir = self._nudge(oracle_run, tmp_path, "cka_0_1")
        assert main(["metrics", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert [line for line in out.splitlines() if "cka_0_1" in line] == [
            line for line in out.splitlines()
            if line.startswith("seed 1 unchecked: ")]

    def test_rows_the_log_does_not_determine_are_named(self, tmp_path,
                                                       capsys):
        """A run tracking a baseline: its routing accuracy and every session
        size are stored and named unchecked, seed by seed."""
        assert main(["run", *_tiny_overrides(), "--set",
                     'track_baselines=["prototype"]', "--outdir",
                     str(tmp_path), "--seeds", "1,2"]) == 0
        capsys.readouterr()
        run_dir = next(tmp_path.glob("run-*"))
        assert main(["metrics", "--run-dir", str(run_dir)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if " unchecked: " in line]
        assert [line.split()[1] for line in lines] == ["1", "2"]
        for line in lines:
            names = line.split(": ")[1].split(", ")
            assert "routing_accuracy_prototype" in names
            assert {"session_size_0", "session_size_1",
                    "session_size_2"} <= set(names)
            assert not set(names) & set(RECOMPUTED)


class TestExitCodes:
    def test_invalid_config_value_exits_one(self, tmp_path):
        rc = main(["run", "--set", "M=0", "--outdir", str(tmp_path)])
        assert rc == 1

    def test_unknown_config_key_exits_one(self, tmp_path):
        rc = main(["run", "--set", "optimizer=adam",
                   "--outdir", str(tmp_path)])
        assert rc == 1

    def test_stream_seed_exits_one_and_points_at_seeds(self, tmp_path,
                                                      capsys):
        rc = main(["run", *_tiny_overrides(), "--set", "stream.seed=7",
                   "--outdir", str(tmp_path)])
        assert rc == 1
        assert "`seeds`" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_feature_file_unlike_the_stream_config_exits_one(self, tmp_path,
                                                             capsys):
        features = tmp_path / "features.csv"
        assert main(["gen-features", "--out", str(features),
                     "--set", "stream.num_classes=10"]) == 0
        rc = main(["run", "--set", f"stream.feature_file={features}",
                   "--outdir", str(tmp_path / "runs")])
        assert rc == 1
        assert "classes=10" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("args, names", [
        (["--set", "stream.foo=1"], "stream.foo"),
        (["--set", "M=abc"], "M='abc'"),
        (["--set", "lam=abc"], "lam='abc'"),
        (["--set", "ema_decays=abc"], "ema_decays='abc'"),
        (["--set", "M=1.5"], "M=1.5"),
        (["--set", "stream.batch_size=1.5"], "stream.batch_size=1.5"),
        (["--set", "stream.holdout_fraction=0"], "stream.holdout_fraction"),
        (["--config", "{not json"], "not JSON"),
        (["--config", "[1, 2]"], "holds no JSON object"),
        (["--seeds", "1,a"], "--seeds '1,a'"),
        (["--seeds", "1,1"], "seeds repeat 1"),
        (["--set", "expansion_seed=18446744073709551616"], "expansion_seed"),
        (["--set", "lam=NaN"], "lam=nan is not a finite float"),
        (["--set", "lam=Infinity"], "lam=inf is not a finite float"),
        (["--set", "lr=NaN"], "lr=nan is not a finite float"),
        (["--set", "lr=Infinity"], "lr=inf is not a finite float"),
        (["--set", "stream.noise_scale=NaN"], "stream.noise_scale=nan"),
        (["--set", "stream.cluster_spread=Infinity"],
         "stream.cluster_spread=inf"),
        (["--config", '{"lam": -Infinity}'], "lam=-inf is not a finite float"),
        (["--set", f"lam={10**400}"], "is not a finite float"),
        (["--set", "cka_probe=-3"], "cka_probe=-3"),
        (["--set", 'track_baselines=["kmeans","kmeans"]'],
         "track_baselines repeat kmeans")])
    def test_bad_run_input_exits_one_naming_it(self, tmp_path, capsys, args,
                                               names):
        if args[0] == "--config":
            path = tmp_path / "config.json"
            path.write_text(args[1])
            args = ["--config", str(path)]
        rc = main(["run", *args, "--outdir", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert names in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("option, refusal", [
        ("--seeds", "need at least one seed"),
        ("--config", "config file not found: ''"),
        ("--outdir", None)])
    def test_empty_option_is_taken_as_given(self, tmp_path, monkeypatch,
                                            capsys, option, refusal):
        """An empty ``--seeds`` or ``--config`` is refused, not read as
        absent; an empty ``--outdir`` puts the run directory in the working
        directory, as ``--set outdir=`` does."""
        monkeypatch.chdir(tmp_path)
        rc = main(["run", *_tiny_overrides(), "--seeds", "1", "--outdir",
                   "out", option, ""])
        err = capsys.readouterr().err
        written = sorted(p.name for p in tmp_path.iterdir())
        if refusal is None:
            assert rc == 0 and len(written) == 1
            assert written[0].startswith("run-")
        else:
            assert rc == 1 and "Traceback" not in err and refusal in err
            assert written == []

    def test_gen_features_refuses_keys_outside_the_stream(self, tmp_path,
                                                          capsys):
        out = tmp_path / "features.csv"
        rc = main(["gen-features", "--out", str(out), "--set", "M=5",
                   "--set", "lam=oops"])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert "['M', 'lam']" in err
        assert not out.exists()

    def test_missing_config_file_exits_one(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
