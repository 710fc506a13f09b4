"""Command-line interface: subcommands, overrides, and exit codes."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gclstream
from gclstream.cli import main
from gclstream.stream import load_feature_file


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

    def test_outputs_do_not_depend_on_the_timeout(self, tmp_path):
        outputs = []
        for timeout in (None, "28"):  # the engine's default, OpenBLAS's own
            outdir = tmp_path / str(timeout)
            proc = subprocess.run(
                [sys.executable, "-m", "gclstream", "run", "--seeds", "1",
                 "--outdir", str(outdir)],
                capture_output=True, text=True, env=self._env(timeout))
            assert proc.returncode == 0, proc.stderr
            run_dir = next(outdir.glob("run-*"))
            outputs.append({name: (run_dir / name).read_bytes() for name in (
                "metrics.csv", "anytime.csv", "session_matrix.csv",
                "predictions.jsonl")})
        assert outputs[0] == outputs[1]

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

    def test_missing_predictions_is_a_config_error(self, tmp_path):
        rc = main(["metrics", "--run-dir", str(tmp_path)])
        assert rc == 1


class TestExitCodes:
    def test_invalid_config_value_exits_one(self, tmp_path):
        rc = main(["run", "--set", "M=0", "--outdir", str(tmp_path)])
        assert rc == 1

    def test_unknown_config_key_exits_one(self, tmp_path):
        rc = main(["run", "--set", "optimizer=adam",
                   "--outdir", str(tmp_path)])
        assert rc == 1

    def test_missing_config_file_exits_one(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
