"""Experiment harness: config identity, seed runs, checkpointing, emission."""

import json
import re
import tempfile
import tracemalloc
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gclstream.harness as harness
from gclstream.analytic_router import _head, accumulate, new_router_state
from gclstream.baselines import (BASELINE_KINDS, baseline_fit_update,
                                 baseline_route, new_baseline)
from gclstream.errors import ConfigError, check_fields
from gclstream.expansion import ExpandedBatch, RandomExpansion
from gclstream.experts import MASK_KINDS, SPAWN_POLICIES, ExpertPool
from gclstream.harness import (
    ABLATION_AXES, ABLATIONS, ROUTING_MODES, SeedRunState, ablate,
    apply_overrides, checkpoint, config_dict_hash, config_from_dict,
    config_hash, config_to_dict, desk_config, resume, run, run_batch,
    run_seed,
    _component_cells, _select,
)
from gclstream.metrics import replay
import gclstream.stream as stream_module
from gclstream.stream import (StreamConfig, SyntheticBackbone,
                              load_feature_file, write_feature_file)

from oracles import (accuracy_ref, cka_gram_ref, routing_accuracy_ref,
                     session_metrics_ref)


def _fast(**overrides):
    """A seconds-scale config: tiny stream, narrow expansion, no extras."""
    stream = overrides.pop("stream", {})
    base_stream = dict(num_classes=6, sessions=3, samples_per_class=30,
                       batch_size=12, eval_interval=4, d=8)
    base_stream.update(stream)
    base = dict(stream=base_stream, M=64, lam=100.0, seeds=(1,),
                track_oracle=False, log_predictions=True, cka_probe=32)
    base.update(overrides)
    return desk_config(**base)


def _feature_file_config(tmp_path, **overrides):
    """_fast's config, reading its stream from a feature file."""
    path = tmp_path / "features.csv"
    write_feature_file(path, SyntheticBackbone(StreamConfig(
        num_classes=6, samples_per_class=30, d=8)))
    return _fast(stream={"feature_file": str(path)}, **overrides)


def _count_parses(monkeypatch, *modules) -> list:
    """The paths of every load_feature_file call made through ``modules``."""
    calls = []

    def counted(path):
        calls.append(path)
        return load_feature_file(path)

    for module in modules:
        monkeypatch.setattr(module, "load_feature_file", counted)
    return calls


# _fast's stream (M=64) after DUAL_SOLVED batches: the router is in the dual
# form with 61 rows, 49 of them factored; after PAST_M batches it holds G;
# after HELD batches also the factor of its last factorization (batch 8) and
# the 23 rows kept since, the 11 of the batch-9 solve whitened.
DUAL_SOLVED, PAST_M, HELD = 6, 7, 10


class TestConfigIdentity:
    def test_hash_is_stable_and_ignores_output_location(self):
        a = _fast(outdir="x")
        b = _fast(outdir="y")
        assert config_hash(a) == config_hash(b)

    def test_hash_tracks_scientific_fields(self):
        assert config_hash(_fast()) != config_hash(_fast(lam=7.0))
        assert config_hash(_fast()) != config_hash(_fast(seeds=(1, 2)))
        assert config_hash(_fast()) != config_hash(
            _fast(stream={"noise_scale": 0.7}))

    def test_dict_round_trip(self):
        config = _fast(aggregation="mean", ema_decays=(0.8, 0.95))
        again = config_from_dict(config_to_dict(config))
        assert config_hash(again) == config_hash(config)

    def test_unknown_keys_rejected(self):
        data = config_to_dict(_fast())
        data["momentum"] = 0.9
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_apply_overrides_reaches_nested_keys(self):
        data = config_to_dict(_fast())
        apply_overrides(data, ["lam=250.0", "stream.noise_scale=1.5",
                               "aggregation=mean"])
        config = config_from_dict(data)
        assert config.lam == 250.0
        assert config.stream.noise_scale == 1.5
        assert config.aggregation == "mean"

    def test_apply_overrides_requires_key_value(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["lam"])

    def test_desk_preset_defaults(self):
        config = desk_config()
        assert config.M == 1024
        assert config.lam == 1e4
        assert config.ema_decays == (0.9, 0.99)
        assert config.aggregation == "softmax_max"
        assert config.mask_kind == "batch_seen_class"
        assert config.seeds == (1, 2, 3, 4, 5)
        assert config.stream.num_classes == 20
        assert config.stream.sessions == 5
        assert config.stream.eval_interval == 10
        assert config.stream.batch_size == 64

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            _fast(aggregation="median")
        with pytest.raises(ConfigError):
            _fast(mask_kind="everything")
        with pytest.raises(ConfigError):
            _fast(routing="astrology")
        with pytest.raises(ConfigError):
            _fast(M=0)
        with pytest.raises(ConfigError):
            _fast(seeds=())
        with pytest.raises(ConfigError):
            _fast(track_baselines=("centroid",))

    @pytest.mark.parametrize("key, value", [
        ("ema_decays", [0.99, 0.9]),
        ("ema_decays", [0.9, 0.9]),
        ("ema_decays", [0.0, 0.9]),
        ("ema_decays", [0.9, 1.0]),
        ("spawn_budget", 0),
        ("stream", {"seed": 7}),  # each run seed seeds its own stream
        ("stream", {"holdout_fraction": 0.0}),  # nothing left to evaluate
        ("stream", {"foo": 1}),
        ("stream", {"batch_size": 1.5}),
        ("stream", [1]),
        ("M", 1.5),
        ("M", True),
        ("lam", "abc"),
        ("ema_decays", "abc"),
        ("seeds", [1, "a"]),
        ("seeds", [1, 2, 1]),  # would run seed 1 twice, with a std of 0
        ("seeds", [-1]),  # numpy seeds no generator from it
        ("seeds", [2**63]),  # a checkpoint stores the seed as an int64
        ("track_oracle", 1),
        ("lam", float("nan")),  # every comparison with NaN is false
        ("lam", float("inf")),
        ("lr", float("nan")),
        ("lr", float("-inf")),
        ("lam", 10**400),  # no float holds it
        ("stream", {"noise_scale": float("nan")}),
        ("stream", {"noise_scale": float("inf")}),
        ("cka_probe", -3),  # would skip the probe, as 0 does
        ("track_baselines", ["kmeans", "kmeans"]),  # would track it once
    ])
    def test_field_outside_its_domain_is_a_config_error(self, key, value):
        """Each value would otherwise fail deep inside a seed's set-up."""
        data = config_to_dict(_fast())
        data[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_dict(data)

    @pytest.mark.parametrize("key, value, named", [
        ("activation", "relu", "activation"),
        ("expansion_seed", 0, "expansion_seed"),
        ("stream", {"cluster_spread": 1.0}, "stream.cluster_spread"),
    ])
    def test_deleted_knob_is_an_unknown_key(self, key, value, named):
        """A config naming a knob that no longer exists, even at its old
        default, is refused rather than silently dropped."""
        data = config_to_dict(_fast())
        data[key] = ({**data[key], **value} if isinstance(value, dict)
                     else value)
        refusal = re.escape(f"unknown config keys: ['{named}']")
        with pytest.raises(ConfigError, match=refusal):
            config_from_dict(data)

    @pytest.mark.parametrize("annotation", [
        "list[int]", "Optional[int]", "tuple", int])
    def test_unreadable_field_annotation_is_a_type_error(self, annotation):
        """A field whose annotation the check cannot read fails loudly
        instead of admitting every value."""
        @dataclass
        class Config:
            x: int = 1

        Config.__dataclass_fields__["x"].type = annotation
        with pytest.raises(TypeError):
            check_fields(Config())

    @pytest.mark.parametrize("key, value", [
        ("ema_decays", []), ("ema_decays", [0.5]), ("spawn_budget", 1),
        ("lam", 100), ("lr", np.float64(0.01)),
        ("M", np.int64(32))])
    def test_field_at_its_domain_edge_is_accepted(self, key, value):
        data = config_to_dict(_fast())
        data[key] = value
        assert getattr(config_from_dict(data), key) == (
            tuple(value) if isinstance(value, list) else value)


class TestSeedRuns:
    def test_session_aligned_spawns_one_expert_per_session(self):
        metrics, state = run_seed(_fast(), 1)
        assert metrics["num_experts"] == 3.0
        assert state.pool.adapters[0].frozen
        assert state.pool.adapters[1].frozen
        assert not state.pool.adapters[2].frozen

    def test_sample_budget_spawns_by_accumulated_samples(self):
        config = _fast(spawn_policy="sample_budget", spawn_budget=40)
        metrics, state = run_seed(config, 1)
        count, under = 0, 0
        for ids, _, _ in state.schedule.batches:
            if count == 0 or under >= 40:
                count, under = count + 1, 0
            under += len(ids)
        assert count > 1
        assert metrics["num_experts"] == float(count)

    def test_repeat_runs_are_bit_identical(self):
        a, _ = run_seed(_fast(track_baselines=("prototype", "kmeans")), 1)
        b, _ = run_seed(_fast(track_baselines=("prototype", "kmeans")), 1)
        assert a == b

    def test_different_seeds_differ(self):
        a, _ = run_seed(_fast(), 1)
        b, _ = run_seed(_fast(), 2)
        assert a != b

    def test_expansion_is_keyed_by_the_run_seed(self):
        """Each run seed draws its own expansion, the one that
        RandomExpansion keys by that seed."""
        config = _fast()
        weights = [SeedRunState(config, seed).expansion.weights
                   for seed in (1, 2)]
        for seed, drawn in zip((1, 2), weights):
            np.testing.assert_array_equal(
                drawn, RandomExpansion(8, config.M, seed).weights)
        assert np.abs(weights[0] - weights[1]).max() > 1e-6

    def test_single_pass_guard_trips_on_replay(self):
        config = _fast()
        state = SeedRunState(config, 1)
        cursor = state.cursor
        batch = cursor.next_batch()
        run_batch(state, batch)
        with pytest.raises(AssertionError):
            run_batch(state, batch)

    def test_metrics_cover_the_advertised_keys(self):
        config = _fast(track_baselines=("prototype",), track_oracle=True)
        metrics, _ = run_seed(config, 1)
        for key in ("a_auc", "a_last", "a_avg", "f_last", "bwt",
                    "final_accuracy", "routing_accuracy", "num_experts",
                    "oracle_accuracy", "oracle_a_last",
                    "routing_accuracy_prototype", "cka_mean"):
            assert key in metrics, key
        assert 0.0 <= metrics["routing_accuracy"] <= 1.0

    @pytest.mark.parametrize("tracked, calls", [((), 1), (("prototype",), 2)])
    def test_final_step_scores_the_routing_baseline_like_the_others(
            self, monkeypatch, tracked, calls):
        """The last batch's final inference routes by the routing kind, so
        finishing routes only in the baseline loop, by every baseline it
        holds, that kind too."""
        state = SeedRunState(_fast(routing="kmeans", track_baselines=tracked),
                             1)
        cursor = state.cursor
        while (batch := cursor.next_batch()) is not None:
            run_batch(state, batch)
        routed = []

        def counting_route(baseline, phi):
            routed.append(baseline)
            return baseline_route(baseline, phi)

        monkeypatch.setattr(harness, "baseline_route", counting_route)
        metrics = harness.finish_seed(state)
        assert len(routed) == calls
        assert metrics["routing_accuracy_kmeans"] == metrics["routing_accuracy"]

    def test_the_holdout_pool_is_expanded_once_per_seed(self):
        """Every evaluation and the final baseline loop read one expansion
        of the holdout pool, made at the first evaluation rather than at
        set-up; training expands each streamed row once."""
        config = _fast(track_baselines=("prototype", "kmeans"),
                       track_oracle=True)
        state = SeedRunState(config, 1)
        assert "holdout_phi" not in vars(state)
        expanded, expand = [], state.expansion
        state.expansion = lambda X: expanded.append(len(X)) or expand(X)
        run_seed(config, 1, state=state)
        assert sum(expanded) == (state.schedule.total_train
                                 + len(state.holdout_ids))
        np.testing.assert_array_equal(state.holdout_phi,
                                      expand(state.holdout_X))

    def test_cka_rows_are_linear_cka_of_the_adapter_residuals(self):
        config = _fast()
        metrics, state = run_seed(config, 1)
        probe_rng = np.random.default_rng(
            np.random.SeedSequence([1, harness.TAG_CKA]))
        n = len(state.holdout_X)
        probe = state.holdout_X[probe_rng.choice(
            n, size=min(config.cka_probe, n), replace=False)]
        residuals = [ad.adapted(probe) - probe for ad in state.pool.adapters]
        pairs = [(i, j) for i in range(len(residuals))
                 for j in range(i + 1, len(residuals))]
        assert len(pairs) == 3
        want = [cka_gram_ref(residuals[i], residuals[j]) for i, j in pairs]
        np.testing.assert_allclose(
            [metrics[f"cka_{i}_{j}"] for i, j in pairs], want, atol=1e-12)
        np.testing.assert_allclose(metrics["cka_mean"], np.mean(want),
                                   atol=1e-12)

    def test_session_matrix_lower_triangle_is_complete(self):
        _, state = run_seed(_fast(), 1)
        R = state.ledger.session_matrix
        T = R.shape[0]
        for i in range(T):
            assert not np.isnan(R[i, :i + 1]).any()
            assert np.isnan(R[i, i + 1:]).all()

    def test_ledger_is_the_replay_of_the_log(self):
        """The ledger is read from the prediction log, never written."""
        metrics, state = run_seed(_fast(track_oracle=True), 1)
        ledger, replayed = replay(state.predictions_log, {
            "session_classes": state.schedule.session_classes,
            "history": state.pool.trained_classes})
        np.testing.assert_array_equal(state.ledger.session_matrix,
                                      ledger.session_matrix)
        assert state.ledger.anytime == ledger.anytime
        assert list(metrics)[:len(replayed)] == list(replayed)
        assert {k: metrics[k] for k in replayed} == replayed
        with pytest.raises(AttributeError):
            state.ledger = ledger

    def test_anytime_history_length_matches_eval_interval(self):
        _, state = run_seed(_fast(), 1)
        batches = len(state.schedule.batches)
        interval = state.config.stream.eval_interval
        assert len(state.ledger.anytime) == batches // interval

    def test_stored_metrics_recompute_from_prediction_log(self):
        """Every streamed metric is reproducible from the logged records."""
        config = _fast()
        metrics, state = run_seed(config, 1)
        T = config.stream.sessions
        session_classes = state.schedule.session_classes
        history = state.pool.trained_classes
        anytime, R = [], np.full((T, T), np.nan)
        final = {}
        for record in state.predictions_log:
            labels = np.array(record["labels"])
            predictions = np.array(record["predictions"])
            if record["phase"] == "anytime":
                anytime.append(accuracy_ref(predictions, labels))
            elif record["phase"] == "session":
                i = record["step"]
                for j in range(i + 1):
                    member = np.isin(labels, sorted(session_classes[j]))
                    R[i, j] = accuracy_ref(predictions[member],
                                           labels[member])
            elif record["phase"] == "final":
                final["final_accuracy"] = accuracy_ref(predictions, labels)
                final["routing_accuracy"] = routing_accuracy_ref(
                    record["selections"], labels, history)
        ref = session_metrics_ref(R)
        assert abs(np.mean(anytime) - metrics["a_auc"]) <= 1e-12
        for key in ("a_last", "a_avg", "f_last", "bwt"):
            assert abs(ref[key] - metrics[key]) <= 1e-12
        for key, value in final.items():
            assert abs(value - metrics[key]) <= 1e-12

    def test_degenerate_run_is_a_plain_linear_classifier(self):
        """One session, one expert, no bank, no mask: inference must equal
        the online head's argmax over adapter-adapted features."""
        config = _fast(stream={"sessions": 1, "eval_interval": 8},
                       multi_expert=False, ema_decays=(), mask_kind="none",
                       routing="latest")
        metrics, state = run_seed(config, 1)
        assert metrics["num_experts"] == 1.0
        adapted = state.pool.adapters[0].adapted(state.holdout_X)
        direct = np.argmax(state.pool.online.logits(adapted), axis=1)
        want = accuracy_ref(direct, state.holdout_y)
        np.testing.assert_allclose(metrics["final_accuracy"], want,
                                   atol=1e-12)

    def test_adapted_accumulation_changes_the_router_statistics(self):
        _, state_a = run_seed(_fast(), 1)
        _, state_b = run_seed(_fast(accumulate_adapted=False), 1)
        assert np.abs(state_a.router.gram - state_b.router.gram).max() > 1e-9

    def test_reset_head_at_spawn_runs_and_differs(self):
        a, _ = run_seed(_fast(), 1)
        b, _ = run_seed(_fast(reset_head_at_spawn=True), 1)
        assert a != b

    def test_oracle_beats_or_ties_ridge_routing(self):
        """The oracle routes every held-out row to an expert that trained
        its label, so its routing accuracy is 1, the most ridge can reach."""
        metrics, state = run_seed(_fast(track_oracle=True), 1)
        oracle = next(r for r in state.predictions_log
                      if r["phase"] == "oracle")
        assert routing_accuracy_ref(oracle["selections"], oracle["labels"],
                                    state.pool.trained_classes) == 1.0
        assert metrics["routing_accuracy"] <= 1.0
        assert "oracle_routing_accuracy" not in metrics
        assert "oracle_fallbacks" not in metrics

    def test_seen_is_the_union_of_the_experts_classes(self):
        state = SeedRunState(_fast(), 1)
        cursor = state.cursor
        labels = set()
        while (batch := cursor.next_batch()) is not None:
            run_batch(state, batch)
            labels |= {int(c) for c in batch[1]}
            assert state.seen == labels == set().union(
                *state.pool.trained_classes)

    def test_eval_batch_that_ends_a_session_infers_once(self, monkeypatch):
        """An anytime point that is also its session's last batch feeds one
        inference to both the anytime record and the session row."""
        config = _fast(stream={"eval_interval": 1})
        state = SeedRunState(config, 1)
        cursor = state.cursor
        ends = [session for _, session, _ in state.schedule.batches].index(1)
        for _ in range(ends - 1):  # every batch before session 0's last
            run_batch(state, cursor.next_batch())
        calls = []
        infer = harness.full_inference
        monkeypatch.setattr(harness, "full_inference",
                            lambda *a: calls.append(1) or infer(*a))
        run_batch(state, cursor.next_batch())
        assert len(calls) == 1
        anytime, session = state.predictions_log[-2:]
        assert (anytime["phase"], session["phase"]) == ("anytime", "session")
        assert anytime["predictions"] == session["predictions"]
        assert not np.isnan(state.ledger.session_matrix[0, 0])

    def test_a_seed_infers_once_per_evaluated_batch_and_once_for_oracle(
            self, monkeypatch):
        """The last batch's session and final records share one inference,
        and finishing the seed infers nothing: a desk seed's 7 evaluated
        batches and its oracle record make 8 inferences."""
        calls = []
        infer = harness._infer
        monkeypatch.setattr(harness, "_infer", lambda state, routing: (
            calls.append(routing) or infer(state, routing)))
        _, state = run_seed(desk_config(seeds=(1,)), 1)
        assert calls == ["ridge"] * 7 + ["oracle"]
        assert [r["phase"] for r in state.predictions_log[-3:]] == [
            "session", "final", "oracle"]

    def test_finishing_a_seed_twice_gives_the_same_metrics(self):
        state = SeedRunState(_fast(track_oracle=True,
                                   track_baselines=("kmeans",)), 1)
        harness._train(state)
        log = json.dumps(state.predictions_log)
        metrics = harness.finish_seed(state)
        assert harness.finish_seed(state) == metrics
        assert json.dumps(state.predictions_log) == log

    def test_finishing_a_seed_before_its_last_batch_raises(self):
        state = SeedRunState(_fast(), 1)
        cursor = state.cursor
        for _ in range(len(state.schedule.batches) - 1):
            run_batch(state, cursor.next_batch())
        with pytest.raises(ValueError, match="12 of its 13 batches"):
            harness.finish_seed(state)
        assert not any(r["phase"] == "final" for r in state.predictions_log)


class TestSelect:
    """Expert selection per routing mode over a pool of ten held-out rows:
    two experts trained on classes {0, 1} and {2, 3}, whose rows sit in two
    separated clusters; the first five pool rows are of the first cluster."""

    def setup_method(self):
        rng = np.random.default_rng(42)
        pool = ExpertPool(d=2, num_classes=4, decays=(0.9,), rng=rng)
        for classes in ([0, 1], [2, 3]):
            pool.spawn()
            pool.observe(classes)
        expansion = RandomExpansion(2, 16, seed=7)
        router = new_router_state(16, 1.0, num_experts=2)
        prototype = new_baseline("prototype", 16, num_experts=2)
        X0 = rng.standard_normal((20, 2)) + np.array([4.0, 0.0])
        X1 = rng.standard_normal((20, 2)) + np.array([-4.0, 0.0])
        for e, X in enumerate((X0, X1)):
            batch = ExpandedBatch(expansion(X), e)
            accumulate(router, batch)
            baseline_fit_update(prototype, batch)
        self.X = np.vstack([X0[:5], X1[:5]])
        self.state = SimpleNamespace(
            pool=pool, router=router, baselines={"prototype": prototype},
            holdout_phi=expansion(self.X),
            holdout_y=np.array([0, 1, 0, 1, 0, 2, 3, 2, 3, 2]))
        self.rows = np.arange(10)

    def test_ridge_separates_the_clusters(self):
        picks = _select(self.state, self.rows, "ridge")
        np.testing.assert_array_equal(picks, [0] * 5 + [1] * 5)
        assert self.state.router.solved is not None  # solved on demand

    def test_latest_ignores_the_router(self):
        picks = _select(self.state, self.rows[:6], "latest")
        np.testing.assert_array_equal(picks, [1] * 6)
        assert self.state.router.solved is None

    def test_oracle_uses_history(self):
        picks = _select(self.state, np.array([0, 6, 1]), "oracle")
        np.testing.assert_array_equal(picks, [0, 1, 0])
        assert self.state.router.solved is None  # the router is not read

    def test_a_baseline_kind_routes_by_that_baseline(self):
        picks = _select(self.state, self.rows[::-1], "prototype")
        np.testing.assert_array_equal(picks, [1] * 5 + [0] * 5)
        np.testing.assert_array_equal(picks, baseline_route(
            self.state.baselines["prototype"],
            RandomExpansion(2, 16, seed=7)(self.X[::-1])))

    def test_unknown_routing_mode_raises(self):
        with pytest.raises(ValueError):
            _select(self.state, self.rows, "roulette")


class TestCheckpointResume:
    def test_immediate_checkpoint_equals_fresh_run(self, tmp_path):
        config = _fast()
        state = SeedRunState(config, 1)
        path = tmp_path / "fresh.npz"
        checkpoint(state, path)
        resumed, _ = run_seed(config, 1, state=resume(path, config))
        direct, _ = run_seed(config, 1)
        assert resumed == direct

    def test_mid_stream_checkpoint_matches_uninterrupted(self, tmp_path):
        config = _fast(track_baselines=("prototype", "kmeans",
                                        "trained_shallow"))
        direct, _ = run_seed(config, 1)
        state = SeedRunState(config, 1)
        cursor = state.cursor
        for _ in range(7):
            run_batch(state, cursor.next_batch())
        path = tmp_path / "mid.npz"
        checkpoint(state, path)
        resumed, _ = run_seed(config, 1, state=resume(path, config))
        assert resumed == direct

    def test_primal_checkpoint_allocates_no_m_by_m_array(self, tmp_path):
        """At M=1024 a checkpoint past M rows writes only counters and the
        log, so it peaks far below G's bytes."""
        state = SeedRunState(_fast(M=1024), 1)
        phi = np.random.default_rng(4).standard_normal((1025, 1024))
        accumulate(state.router, ExpandedBatch(phi, 0))
        del phi
        assert not state.router.dual
        tracemalloc.start()
        try:
            checkpoint(state, tmp_path / "ck.npz")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * state.router.gram.nbytes

    def test_altered_config_is_refused(self, tmp_path):
        config = _fast()
        state = SeedRunState(config, 1)
        path = tmp_path / "ck.npz"
        checkpoint(state, path)
        with pytest.raises(ConfigError):
            resume(path, _fast(lam=999.0))

    def test_checkpoint_hashed_with_the_deleted_knobs_is_refused(
            self, tmp_path):
        """A checkpoint whose config still held activation, expansion_seed
        and stream.cluster_spread at their defaults hashes otherwise."""
        config = _fast()
        path = tmp_path / "ck.npz"
        checkpoint(SeedRunState(config, 1), path)
        old = config_to_dict(config)
        old.update(activation="relu", expansion_seed=None,
                   stream={**old["stream"], "cluster_spread": 1.0})
        _write(path, {**_read(path), "config_hash": config_dict_hash(old)})
        with pytest.raises(ConfigError, match="written under a different "
                           "config"):
            resume(path, config)

    def test_tampered_version_is_refused(self, tmp_path):
        config = _fast()
        state = SeedRunState(config, 1)
        path = tmp_path / "ck.npz"
        checkpoint(state, path)
        _write(path, {**_read(path), "version": 999})
        with pytest.raises(ConfigError, match="checkpoint version 999 != "
                           "engine checkpoint version 8"):
            resume(path, config)

    def test_version_5_checkpoint_is_refused_naming_its_version(
            self, tmp_path):
        """Up to v5 a checkpoint kept its counters, the pool's scalars and
        the prediction log in one JSON ``meta`` entry."""
        config, path = _fast(), tmp_path / "ck.npz"
        state = _checkpoint_at(config, 3, path)
        meta = {key: value.tolist() for key, value in _read(path).items()}
        meta.update(version=5, predictions_log=state.predictions_log,
                    trained_classes=[sorted(c)
                                     for c in state.pool.trained_classes])
        _write(path, {"meta": json.dumps(meta),
                      "gram": np.zeros((64, 64), order="F")})
        with pytest.raises(ConfigError, match="checkpoint version 5 != "
                           "engine checkpoint version 8"):
            resume(path, config)

    def test_version_7_checkpoint_is_refused_naming_its_version(
            self, tmp_path):
        """A v7 checkpoint held the router's, the pool's and the baselines'
        arrays next to the counters and the log."""
        config, path = _fast(), tmp_path / "ck.npz"
        state = _checkpoint_at(config, 3, path)
        _write(path, {**_read(path), "version": 7,
                      "samples_seen": state.router.samples_seen,
                      "proto": state.router.proto,
                      "online_w": state.pool.online.weights})
        with pytest.raises(ConfigError, match="checkpoint version 7 != "
                           "engine checkpoint version 8"):
            resume(path, config)

    def test_truncated_checkpoint_is_refused(self, tmp_path):
        config = _fast()
        state = SeedRunState(config, 1)
        run_batch(state, state.cursor.next_batch())
        path = tmp_path / "ck.npz"
        checkpoint(state, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ConfigError):
            resume(path, config)

    @pytest.mark.parametrize("key", ["version", "config_hash", "seed",
                                     "batch_index", "predictions_log"])
    def test_checkpoint_missing_an_entry_is_refused(self, tmp_path, key):
        """Each counter and the log."""
        config, path = _fast(track_baselines=("kmeans",)), tmp_path / "ck.npz"
        _checkpoint_at(config, DUAL_SOLVED, path)
        entries = _read(path)
        del entries[key]
        _write(path, entries)
        with pytest.raises(ConfigError, match=f"no entry '{key}'"):
            resume(path, config)


def _checkpoint_at(config, at, path):
    """Run seed 1 to batch ``at`` and checkpoint it."""
    state = SeedRunState(config, 1)
    cursor = state.cursor
    for _ in range(at):
        run_batch(state, cursor.next_batch())
    checkpoint(state, path)
    return state


def _read(path) -> dict:
    """Every entry of a checkpoint."""
    with np.load(path, allow_pickle=False) as data:
        return dict(data.items())


def _write(path, entries: dict) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def _bump(key, by):
    return lambda entries: entries.update({key: entries[key] + by})


def _edit_log(edit):
    """Apply ``edit`` to the prediction log the checkpoint holds as JSON."""
    def edit_entries(entries):
        log = json.loads(entries["predictions_log"].item())
        edit(log)
        entries["predictions_log"] = json.dumps(log)
    return edit_entries


# Each edit leaves a checkpoint that still reads and hash-matches but whose
# batch index or prediction log does not fit the config below and its
# schedule: 6 classes, 3 sessions, 13 batches and, at batch 7, two experts.
# Each case names the entry the refusal must name.
TAMPERED = {
    # in range, but the two more batches log anytime record 2
    "batch_index_plus_2": ("predictions_log", _bump("batch_index", 2)),
    "batch_index_past_the_schedule": ("batch_index",
                                      _bump("batch_index", 100)),
    "batch_index_negative": ("batch_index", _bump("batch_index", -8)),
    "record_without_labels": ("predictions_log", _edit_log(
        lambda log: log[0].pop("labels"))),
    "session_step_99": ("predictions_log", _edit_log(
        lambda log: log[0].update(phase="session", step=99))),
    "session_step_negative": ("predictions_log", _edit_log(
        lambda log: log[0].update(phase="session", step=-1))),
    "final_selection_99": ("predictions_log", _edit_log(
        lambda log: log[0].update(phase="final", selections=[99] * len(
            log[0]["labels"])))),
    # class 0 is in session 2 only
    "session_1_without_a_row_of_session_0": (
        "predictions_log", _edit_log(lambda log: log[0].update(
            phase="session", step=1, labels=[0], predictions=[0]))),
    # no session holds class 999
    "session_0_without_a_row_of_session_0": (
        "predictions_log", _edit_log(lambda log: log[1].update(
            labels=[999], predictions=[999]))),
    "label_that_is_a_list": ("predictions_log", _edit_log(
        lambda log: log[0]["labels"].__setitem__(0, [0]))),
    "labels_shorter_than_predictions": ("predictions_log", _edit_log(
        lambda log: log[0]["labels"].pop())),
    # equal to the rerun's log as a value, not as text
    "label_stored_as_a_float": ("predictions_log", _edit_log(
        lambda log: log[0]["labels"].__setitem__(
            0, float(log[0]["labels"][0])))),
    # the records batches 1..7 end in: anytime 1 (batch 4), session 0
    # (batch 5)
    "first_anytime_record_dropped": ("predictions_log", _edit_log(
        lambda log: log.pop(0))),
    "record_repeated": ("predictions_log", _edit_log(
        lambda log: log.append(log[-1]))),
    "record_that_is_a_list": ("predictions_log", _edit_log(
        lambda log: log.__setitem__(0, [1]))),
    "log_that_is_an_object": ("predictions_log", lambda entries:
                              entries.update(predictions_log="{}")),
    "log_that_is_not_json": ("predictions_log", lambda entries:
                             entries.update(predictions_log="[{")),
}


@pytest.mark.parametrize("case", TAMPERED)
def test_checkpoint_that_does_not_fit_the_config_is_refused(tmp_path, case):
    config = _fast(track_baselines=("prototype", "kmeans"))
    path = tmp_path / "ck.npz"
    state = _checkpoint_at(config, 7, path)
    assert state.pool.num_experts == 2
    assert [(r["phase"], r["step"]) for r in state.predictions_log] == [
        ("anytime", 1), ("session", 0)]
    entries = _read(path)
    entry, edit = TAMPERED[case]
    edit(entries)
    _write(path, entries)
    with pytest.raises(ConfigError, match=rf"ck\.npz: .*\b{entry}\b"):
        resume(path, config)


def _mutants(log: list):
    """Each single-record mutation of ``log`` (a record deleted or
    duplicated, or two neighbours swapped), with the index of the first
    record the mutant does not hold where ``log`` does."""
    for i in range(len(log)):
        yield log[:i] + log[i + 1:], i
        yield log[:i + 1] + log[i:], i + 1
        if i + 1 < len(log):
            yield [*log[:i], log[i + 1], log[i], *log[i + 2:]], i


def test_every_single_record_mutant_of_a_checkpoint_log_is_refused(
        tmp_path):
    """Each mutant of a log at the end of the stream is refused at its
    first record that departs from the rerun's log, and the untouched log
    resumes."""
    config, path = _fast(), tmp_path / "ck.npz"
    done = len(SeedRunState(config, 1).schedule.batches)
    state = _checkpoint_at(config, done, path)
    entries = _read(path)
    assert len(state.predictions_log) == 7
    assert state.predictions_log[-1]["phase"] == "final"
    assert resume(path, config).predictions_log == state.predictions_log
    for log, index in _mutants(state.predictions_log):
        _write(path, {**entries, "predictions_log": json.dumps(log)})
        with pytest.raises(ConfigError, match=rf"ck\.npz: predictions_log "
                           rf"record {index} departs from the log its "
                           rf"{done} batches write, which holds "):
            resume(path, config)


def test_an_end_of_stream_checkpoint_without_its_final_record_is_refused(
        tmp_path):
    """The last batch logs the final record, so a checkpoint taken after it
    holds one; a log without it (as an older engine wrote) is refused."""
    config, path = _fast(), tmp_path / "ck.npz"
    state = _checkpoint_at(config, len(SeedRunState(config, 1).schedule
                                       .batches), path)
    log = state.predictions_log[:-1]
    _write(path, {**_read(path), "predictions_log": json.dumps(log)})
    with pytest.raises(ConfigError, match=rf"predictions_log record "
                       rf"{len(log)} departs .*, which holds final record "
                       "there$"):
        resume(path, config)


def test_a_log_with_one_prediction_changed_is_refused(tmp_path):
    """Mid-stream, a well-formed log whose one prediction is not the one
    its batches make is refused at that record: resume reruns the batches
    and requires the very text of their log."""
    config, path = _fast(), tmp_path / "ck.npz"
    state = _checkpoint_at(config, PAST_M, path)
    log = json.loads(json.dumps(state.predictions_log))
    log[-1]["predictions"][0] = (log[-1]["predictions"][0] + 1) % 6
    _write(path, {**_read(path), "predictions_log": json.dumps(log)})
    with pytest.raises(ConfigError, match=rf"ck\.npz: predictions_log "
                       rf"record {len(log) - 1} departs from the log its "
                       rf"{PAST_M} batches write"):
        resume(path, config)


def test_a_log_respelled_as_other_json_text_is_refused(tmp_path):
    """The stored log must be the text ``checkpoint`` writes, not only the
    same records: the rerun's log, indented, is refused."""
    config, path = _fast(), tmp_path / "ck.npz"
    state = _checkpoint_at(config, PAST_M, path)
    _write(path, {**_read(path), "predictions_log": json.dumps(
        state.predictions_log, indent=1)})
    with pytest.raises(ConfigError, match=r"ck\.npz: predictions_log is not "
                       "the text checkpoint writes$"):
        resume(path, config)


def test_a_checkpoint_of_a_rewritten_feature_file_is_refused(tmp_path):
    """A feature-file run checkpointed mid-stream resumes bit-exactly from
    the same file, and is refused once the file holds another backbone's
    features under the same path, labels and config hash."""
    config, path = _feature_file_config(tmp_path), tmp_path / "ck.npz"
    direct, _ = run_seed(config, 1)
    _checkpoint_at(config, PAST_M, path)
    assert run_seed(config, 1, state=resume(path, config))[0] == direct
    write_feature_file(config.stream.feature_file, SyntheticBackbone(
        StreamConfig(num_classes=6, samples_per_class=30, d=8, seed=2)))
    with pytest.raises(ConfigError, match=r"ck\.npz: predictions_log"):
        resume(path, config)


# Every entry of a checkpoint, as (dtype, shape); a str entry's dtype is its
# kind, "U", whatever its length.
PINNED = {"version": ("<i8", ()), "config_hash": ("U", ()),
          "seed": ("<i8", ()), "batch_index": ("<i8", ()),
          "predictions_log": ("U", ())}


@pytest.fixture(scope="module")
def every_entry(tmp_path_factory) -> dict:
    """Batch number -> entries of a checkpoint of _fast's stream with every
    baseline tracked, at DUAL_SOLVED, PAST_M and HELD batches."""
    config = _fast(track_baselines=BASELINE_KINDS)
    path = tmp_path_factory.mktemp("every_entry") / "ck.npz"
    checkpoints = {}
    for at in (DUAL_SOLVED, PAST_M, HELD):
        _checkpoint_at(config, at, path)
        checkpoints[at] = _read(path)
    return checkpoints


def _pinned(entries: dict) -> dict:
    return {key: ("U" if value.dtype.kind == "U" else value.dtype.str,
                  value.shape) for key, value in entries.items()}


def test_checkpoint_format_is_pinned(every_entry):
    """The v8 entries: the counters and the log, whatever form the router
    is in and whichever baselines are tracked.  No array: resume rebuilds
    every one by rerunning the batches before the checkpoint."""
    for at, entries in every_entry.items():
        assert _pinned(entries) == PINNED, at
        assert entries["version"] == 8 and entries["batch_index"] == at


def _ill_typed(value: np.ndarray):
    """``value`` cast to another dtype, as strings, and with one more
    axis."""
    kind = value.dtype.kind
    yield value.astype({"i": np.float64, "U": np.bytes_}[kind])
    if kind != "U":
        yield value.astype(str)
    yield value[None]


@pytest.mark.parametrize("entry", PINNED)
def test_ill_typed_entry_is_refused_by_name(tmp_path, every_entry, entry):
    """Each entry cast to another dtype (an int count to float, say), to
    strings or to one more axis, is refused as a config error naming it."""
    config, path = _fast(track_baselines=BASELINE_KINDS), tmp_path / "ck.npz"
    for value in _ill_typed(every_entry[PAST_M][entry]):
        _write(path, {**every_entry[PAST_M], entry: value})
        why = re.escape(f"dtype {value.dtype}" if value.ndim == 0
                        else f"shape {value.shape}")
        with pytest.raises(ConfigError, match=rf"ck\.npz: {entry} has {why}"):
            resume(path, config)


def _stacked(arrays, shape) -> np.ndarray:
    return np.reshape(list(arrays), shape)


def _router_factor(router) -> np.ndarray:
    """The Cholesky factor over the router's first ``factored`` rows."""
    k = router.factored
    return (np.tril(_head(router._region(), k)) if k
            else np.zeros((0, 0)))


def _router_rows(router) -> np.ndarray:
    """The dual form's rows, or the rows kept since the primal form's last
    factorization."""
    if router.dual:
        return router.gram[:, :router.samples_seen].T
    return router.factor_buf[:, :router.kept].T if router.kept else (
        np.zeros((0, router.M)))


def _trained_classes(pool) -> np.ndarray:
    mask = np.zeros((pool.num_experts, pool.num_classes), dtype=bool)
    for e, classes in enumerate(pool.trained_classes):
        mask[e, sorted(classes)] = True
    return mask


def _bank(pool, part) -> list:
    return [getattr(h, part) for b in pool.banks for h in b.heads]


# Each array a v7 checkpoint stored, under its v7 entry name, and the rest
# of what a seed carries between batches (the counters that sized the v7
# entries, the adapters' spawn generator, the streamed mask, the log), as a
# reader of a SeedRunState.  The pool's adapters and heads, the baselines'
# per-expert rows and the k-means reservoirs read stacked.
REBUILT = {
    "proto": lambda s: s.router.proto,
    "samples_seen": lambda s: s.router.samples_seen,
    "jitter_used": lambda s: s.router.jitter_used,
    "factored": lambda s: s.router.factored,
    "kept": lambda s: s.router.kept,
    "gram": lambda s: s.router.gram,
    "rows": lambda s: _router_rows(s.router),
    "row_expert": lambda s: s.router.row_expert,
    "factor": lambda s: _router_factor(s.router),
    "factor_diag": lambda s: s.router.factor_diag,
    "online_w": lambda s: s.pool.online.weights,
    "online_b": lambda s: s.pool.online.bias,
    "samples_under_current": lambda s: s.pool.samples_under_current,
    "trained_classes": lambda s: _trained_classes(s.pool),
    "adapter_scale": lambda s: _stacked(
        (a.scale for a in s.pool.adapters), (s.pool.num_experts, -1)),
    "adapter_shift": lambda s: _stacked(
        (a.shift for a in s.pool.adapters), (s.pool.num_experts, -1)),
    "adapter_frozen": lambda s: [a.frozen for a in s.pool.adapters],
    "adapter_rng": lambda s: str(s.pool._rng.bit_generator.state),
    "bank_w": lambda s: _stacked(_bank(s.pool, "weights"),
                                 (s.pool.num_experts, 2, 6, 8)),
    "bank_b": lambda s: _stacked(_bank(s.pool, "bias"),
                                 (s.pool.num_experts, 2, 6)),
    "baseline_prototype_counts": lambda s: s.baselines["prototype"].counts,
    "baseline_prototype_means": lambda s: s.baselines["prototype"].means,
    "baseline_naive_bayes_counts": lambda s: s.baselines[
        "naive_bayes"].counts,
    "baseline_naive_bayes_means": lambda s: s.baselines["naive_bayes"].means,
    "baseline_naive_bayes_m2": lambda s: s.baselines["naive_bayes"].m2,
    "baseline_kmeans_seen": lambda s: s.baselines["kmeans"].seen,
    "baseline_kmeans_reservoirs": lambda s: s.baselines["kmeans"].reservoirs,
    "baseline_kmeans_centroids": lambda s: s.baselines["kmeans"].centroids,
    "baseline_kmeans_centroid_owner": lambda s: s.baselines[
        "kmeans"].centroid_owner,
    "baseline_trained_shallow_W1": lambda s: s.baselines[
        "trained_shallow"].W1,
    "baseline_trained_shallow_b1": lambda s: s.baselines[
        "trained_shallow"].b1,
    "baseline_trained_shallow_W2": lambda s: s.baselines[
        "trained_shallow"].W2,
    "baseline_trained_shallow_b2": lambda s: s.baselines[
        "trained_shallow"].b2,
    "batch_index": lambda s: s.batch_index,
    "streamed": lambda s: s.streamed,
    "seen": lambda s: sorted(s.seen),
    "predictions_log": lambda s: json.dumps(s.predictions_log),
}
# _fast's 13 batches end the stream.
END = 13


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory) -> dict:
    """Batch number -> (the state of seed 1 run to that batch, the state
    resumed from its checkpoint), every baseline tracked."""
    config = _fast(track_baselines=BASELINE_KINDS)
    path = tmp_path_factory.mktemp("rebuilt") / "ck.npz"
    states = {}
    for at in (DUAL_SOLVED, PAST_M, HELD, END):
        direct = _checkpoint_at(config, at, path)
        states[at] = direct, resume(path, config)
    assert len(states[END][0].schedule.batches) == END
    return states


@pytest.mark.parametrize("at", [DUAL_SOLVED, PAST_M, HELD, END])
@pytest.mark.parametrize("entry", REBUILT)
def test_resume_rebuilds_what_a_v7_checkpoint_stored(rebuilt, at, entry):
    """In the dual form, past M rows, with a factor held and at the end of
    the stream, the rerun batches rebuild each array bit for bit, dtype and
    shape included, as the uninterrupted seed holds it: what v7 stored and
    its load checked, v8 reruns."""
    direct, resumed = (REBUILT[entry](state) for state in rebuilt[at])
    if direct is None:
        assert resumed is None
        return
    direct, resumed = np.asarray(direct), np.asarray(resumed)
    assert (resumed.dtype, resumed.shape) == (direct.dtype, direct.shape)
    assert resumed.tobytes() == direct.tobytes()


def _interrupted(config, at, path):
    """Run to batch ``at``, checkpoint, resume and run to the end."""
    _checkpoint_at(config, at, path)
    return run_seed(config, 1, state=resume(path, config))


class TestResumeAnywhere:
    @settings(max_examples=40, deadline=None)
    @given(routing=st.sampled_from(ROUTING_MODES),
           tracked=st.lists(st.sampled_from(BASELINE_KINDS), unique=True),
           spawn_policy=st.sampled_from(SPAWN_POLICIES),
           mask_kind=st.sampled_from(MASK_KINDS),
           ema_decays=st.sampled_from([(), (0.9, 0.99)]),
           track_oracle=st.booleans(),
           data=st.data())
    def test_resume_at_any_batch_boundary_is_bit_exact(
            self, routing, tracked, spawn_policy, mask_kind, ema_decays,
            track_oracle, data):
        config = _fast(routing=routing, track_baselines=tuple(tracked),
                       spawn_policy=spawn_policy, spawn_budget=40,
                       mask_kind=mask_kind, ema_decays=ema_decays,
                       track_oracle=track_oracle)
        direct, direct_state = run_seed(config, 1)
        at = data.draw(st.integers(0, len(direct_state.schedule.batches)),
                       label="checkpoint batch")
        with tempfile.TemporaryDirectory() as tmp:
            resumed, resumed_state = _interrupted(config, at,
                                                  Path(tmp) / "ck.npz")
        assert resumed == direct
        assert resumed_state.predictions_log == direct_state.predictions_log

    def test_resume_at_every_batch_boundary_across_the_fold(self, tmp_path):
        """Solving every other batch, the router's checkpoints hold the dual
        form with no factor, a factor of all its rows and one of fewer rows,
        then G with no factor held, with a held factor and no kept rows,
        with kept rows all whitened, and with some not yet whitened; each
        resumes bit-exactly."""
        config = _fast(stream={"eval_interval": 2})
        direct, direct_state = run_seed(config, 1)
        forms = set()
        for at in range(len(direct_state.schedule.batches) + 1):
            path = tmp_path / f"ck{at}.npz"
            router = _checkpoint_at(config, at, path).router
            whole = (router.factored == router.samples_seen
                     if router.factored else None)
            forms.add((True, whole) if router.dual else (
                False, router.factor_diag is not None, router.factored > 0,
                router.kept > router.factored))
            resumed, resumed_state = run_seed(config, 1,
                                              state=resume(path, config))
            assert resumed == direct, f"resumed at batch {at}"
            assert resumed_state.predictions_log == direct_state.predictions_log
        assert forms == {(True, None), (True, True), (True, False),
                         (False, False, False, False),
                         (False, True, False, False),
                         (False, True, True, False),
                         (False, True, True, True)}

    @pytest.mark.parametrize("M, folds", [(1024, True), (2048, False)])
    def test_resume_at_every_third_batch_of_the_desk_stream(
            self, tmp_path, M, folds):
        """The desk stream's 1600 rows pass M=1024, whose router folds into
        G midway, and stay below M=2048, whose router stays dual; resuming
        at every third batch boundary finishes the seed as the
        uninterrupted run does."""
        config = desk_config(M=M, seeds=(1,))
        direct, direct_state = run_seed(config, 1)
        assert direct_state.router.dual is not folds
        for at in range(0, len(direct_state.schedule.batches) + 1, 3):
            path = tmp_path / f"ck{at}.npz"
            _checkpoint_at(config, at, path)
            resumed, resumed_state = run_seed(config, 1,
                                              state=resume(path, config))
            assert resumed == direct, f"resumed at batch {at}"
            assert resumed_state.predictions_log == direct_state.predictions_log
            np.testing.assert_array_equal(resumed_state.streamed,
                                          direct_state.streamed)

    def test_checkpoint_with_every_kinds_arrays_still_resumes(self, tmp_path):
        """Checkpoints once stored every kind's arrays under every tracked
        kind; a kind's load must read its own keys and ignore the rest."""
        config = _fast(routing="kmeans", track_baselines=BASELINE_KINDS)
        direct, _ = run_seed(config, 1)
        state = SeedRunState(config, 1)
        cursor = state.cursor
        for _ in range(6):
            run_batch(state, cursor.next_batch())
        path = tmp_path / "ck.npz"
        checkpoint(state, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: np.array(v) for k, v in data.items()}
        experts = state.pool.num_experts
        M = config.M
        for kind in BASELINE_KINDS:
            extra = {"counts": np.zeros(experts, dtype=np.int64),
                     "means": np.zeros((experts, M)),
                     "m2": np.zeros((experts, M)),
                     "seen": np.zeros(experts, dtype=np.int64)}
            extra.update({f"reservoir_{e}": np.zeros((512, M))
                          for e in range(experts)})
            for key, value in extra.items():
                arrays.setdefault(f"baseline_{kind}_{key}", value)
        assert "baseline_prototype_reservoir_0" in arrays
        assert "baseline_kmeans_m2" in arrays
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        resumed, _ = run_seed(config, 1, state=resume(path, config))
        assert resumed == direct


class TestRunEmission:
    def test_run_writes_the_result_directory(self, tmp_path):
        config = _fast(seeds=(1, 2), outdir=str(tmp_path))
        result = run(config)
        run_dir = Path(result.run_dir)
        assert run_dir.name == f"run-{config_hash(config)[:12]}"
        for name in ("config.json", "metrics.csv", "session_matrix.csv",
                     "anytime.csv", "predictions.jsonl", "timing.json"):
            assert (run_dir / name).exists(), name

    def test_metrics_csv_has_per_seed_and_aggregate_rows(self, tmp_path):
        config = _fast(seeds=(1, 2), outdir=str(tmp_path))
        result = run(config)
        lines = (Path(result.run_dir) / "metrics.csv").read_text().splitlines()
        assert lines[0] == "seed,metric,value"
        seeds = {line.split(",")[0] for line in lines[1:]}
        assert {"1", "2", "mean", "std"} <= seeds
        row = next(line for line in lines if line.startswith("mean,a_auc,"))
        stored = float(row.split(",")[2])
        per_seed = [result.per_seed[s]["a_auc"] for s in (1, 2)]
        np.testing.assert_allclose(stored, np.mean(per_seed), atol=1e-15)

    def test_mean_and_std_aggregate_with_sample_std(self, tmp_path):
        config = _fast(seeds=(1, 2, 3), outdir=str(tmp_path))
        result = run(config)
        values = [result.per_seed[s]["a_auc"] for s in (1, 2, 3)]
        np.testing.assert_allclose(result.mean["a_auc"], np.mean(values))
        np.testing.assert_allclose(result.std["a_auc"],
                                   np.std(values, ddof=1))

    def test_config_json_records_hashes(self, tmp_path):
        config = _fast(outdir=str(tmp_path))
        result = run(config)
        payload = json.loads((Path(result.run_dir) / "config.json")
                             .read_text())
        assert payload["config_hash"] == config_hash(config)
        assert len(payload["code_hash"]) == 64
        assert payload["config"]["M"] == 64

    def test_predictions_jsonl_has_meta_then_records(self, tmp_path):
        config = _fast(outdir=str(tmp_path))
        result = run(config)
        lines = (Path(result.run_dir) /
                 "predictions.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["phase"] == "meta"
        assert meta["seed"] == 1
        phases = {json.loads(line)["phase"] for line in lines[1:]}
        assert {"anytime", "session", "final"} <= phases

    def test_unlogged_run_keeps_its_log_and_writes_only_meta(self, tmp_path):
        """``log_predictions`` decides only what predictions.jsonl holds:
        the seed keeps its log, and every other output is the logged run's."""
        outputs = []
        for logged in (True, False):
            config = _fast(outdir=str(tmp_path / str(logged)),
                           log_predictions=logged, track_oracle=True)
            result = run(config)
            run_dir = Path(result.run_dir)
            outputs.append({name: (run_dir / name).read_bytes() for name in
                            ("metrics.csv", "anytime.csv",
                             "session_matrix.csv")})
        lines = (run_dir / "predictions.jsonl").read_text().splitlines()
        assert [json.loads(line)["phase"] for line in lines] == ["meta"]
        assert outputs[0] == outputs[1]
        _, state = run_seed(config, 1)
        assert {r["phase"] for r in state.predictions_log} == {
            "anytime", "session", "final", "oracle"}

    def test_a_finished_seed_state_is_released_before_the_next(
            self, tmp_path, monkeypatch):
        """run() keeps only what emission writes of a finished seed, so its
        router statistics are freed before the next seed allocates its own."""
        refs = []
        make_state = harness.SeedRunState

        def tracked_state(config, seed, source=None):
            assert all(ref() is None for ref in refs), "a seed state lives on"
            state = make_state(config, seed, source)
            refs.append(weakref.ref(state))
            return state

        monkeypatch.setattr(harness, "SeedRunState", tracked_state)
        result = run(_fast(seeds=(1, 2, 3), outdir=str(tmp_path)))
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)
        assert set(result.per_seed) == {1, 2, 3}

    def test_each_seed_log_is_replayed_once(self, tmp_path, monkeypatch):
        """Emission writes the ledger that finishing the seed replayed."""
        calls = []

        def spy(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(harness, "replay", spy)
        run(_fast(seeds=(1, 2), outdir=str(tmp_path)))
        assert len(calls) == 2

    def test_a_feature_file_is_parsed_once_per_run(self, tmp_path,
                                                   monkeypatch):
        """run() parses the file once and hands the source to each seed; the
        data outputs are those of a parse per seed, byte for byte."""
        config = _feature_file_config(tmp_path, seeds=(1, 2, 3))
        calls = _count_parses(monkeypatch, harness, stream_module)
        shared = Path(run(replace(config, outdir=str(tmp_path / "a"))).run_dir)
        assert calls == [config.stream.feature_file]

        calls.clear()
        make_state = harness.SeedRunState
        monkeypatch.setattr(harness, "SeedRunState",
                            lambda config, seed, source: make_state(config,
                                                                    seed))
        per_seed = Path(run(replace(config,
                                    outdir=str(tmp_path / "b"))).run_dir)
        assert len(calls) == 1 + 3  # the run's parse goes unused
        for name in ("metrics.csv", "anytime.csv", "session_matrix.csv",
                     "predictions.jsonl"):
            assert (shared / name).read_bytes() == (per_seed / name).read_bytes()

    def test_a_seed_state_without_a_source_parses_the_file(self, tmp_path,
                                                           monkeypatch):
        config = _feature_file_config(tmp_path)
        calls = _count_parses(monkeypatch, stream_module)
        SeedRunState(config, 1)
        SeedRunState(config, 2)
        assert len(calls) == 2

    def test_summary_is_printable(self, tmp_path):
        result = run(_fast(outdir=str(tmp_path)))
        text = result.summary()
        assert "a_auc" in text and "±" in text


class TestAblate:
    def test_component_cells_cover_the_grid(self):
        cells = dict(_component_cells(_fast()))
        assert set(cells) == {"single", "single_ema", "multi_latest",
                              "multi_latest_ema", "multi_ridge", "full"}
        assert not cells["single"].multi_expert
        assert cells["single"].routing == "latest"
        assert cells["single"].ema_decays == ()
        assert cells["multi_ridge"].routing == "ridge"
        assert cells["multi_ridge"].ema_decays == ()
        assert cells["full"].routing == "ridge"
        assert cells["full"].ema_decays == (0.9, 0.99)

    def test_mask_axis_sweeps_and_emits_csv(self, tmp_path):
        config = _fast(outdir=str(tmp_path), log_predictions=False)
        results = ablate(config, "mask")
        names = [name for name, _ in results]
        assert names == ["none", "random", "seen_class", "batch_seen_class"]
        csv_path = tmp_path / "ablate_mask" / "ablate_mask.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "cell,seed,metric,value"
        cells = {line.split(",")[0] for line in lines[1:]}
        assert set(names) <= cells

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            ablate(_fast(), "optimizer")

    def test_a_feature_file_is_parsed_once_per_ablation(self, tmp_path,
                                                        monkeypatch):
        """No axis changes the feature file, d or num_classes, so ablate
        parses the file once for all four mask cells."""
        config = _feature_file_config(tmp_path, outdir=str(tmp_path),
                                      log_predictions=False)
        calls = _count_parses(monkeypatch, harness, stream_module)
        assert len(ablate(config, "mask")) == 4
        assert calls == [config.stream.feature_file]

    def test_every_axis_lists_its_cells_without_running(self):
        config = _fast()
        cells = {axis: ABLATIONS[axis](config) for axis in ABLATION_AXES}
        assert {axis: [name for name, _ in c]
                for axis, c in cells.items()} == {
            "components": ["single", "single_ema", "multi_latest",
                           "multi_latest_ema", "multi_ridge", "full"],
            "aggregation": ["mean", "max_prob", "min_entropy",
                            "softmax_mean", "softmax_max",
                            "softmax_min_entropy"],
            "decays": ["online_only", "0.9", "0.99", "0.999", "0.9+0.99",
                       "0.9+0.99+0.999"],
            "mask": ["none", "random", "seen_class", "batch_seen_class"],
            "routing_alg": ["ridge", "latest", "prototype", "naive_bayes",
                            "kmeans", "trained_shallow", "oracle"],
            "M_sweep": ["M64", "M256", "M1024", "M4096"],
            "lambda_sweep": ["lam100", "lam1000", "lam10000", "lam100000"],
            "rd_sweep": ["rd0", "rd0.5", "rd1"],
            "rb_sweep": ["rb0", "rb0.1", "rb0.3", "rb0.5"],
        }
        swept = {"aggregation": "aggregation", "decays": "ema_decays",
                 "mask": "mask_kind", "routing_alg": "routing", "M_sweep": "M",
                 "lambda_sweep": "lam", "rd_sweep": "stream",
                 "rb_sweep": "stream"}
        for axis, key in swept.items():
            for name, cell in cells[axis]:
                assert replace(cell, **{key: getattr(config, key)}) == config
        assert dict(cells["decays"])["0.9+0.99"].ema_decays == (0.9, 0.99)
        assert dict(cells["rd_sweep"])["rd0.5"].stream.disjoint_ratio == 0.5
        assert dict(cells["rb_sweep"])["rb0.3"].stream.blurry_ratio == 0.3
        assert dict(cells["lambda_sweep"])["lam1000"].lam == 1e3
