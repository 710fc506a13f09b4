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
from gclstream.analytic_router import accumulate, new_router_state
from gclstream.baselines import (BASELINE_KINDS, baseline_fit_update,
                                 baseline_route, new_baseline)
from gclstream.errors import ConfigError, check_fields
from gclstream.expansion import ExpandedBatch, RandomExpansion
from gclstream.experts import MASK_KINDS, SPAWN_POLICIES, ExpertPool
from gclstream.harness import (
    ABLATION_AXES, ABLATIONS, ROUTING_MODES, SeedRunState, ablate,
    apply_overrides, checkpoint, config_from_dict, config_hash,
    config_to_dict, desk_config, resume, run, run_batch, run_seed,
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
        ("activation", "bogus"),
        ("ema_decays", [0.99, 0.9]),
        ("ema_decays", [0.9, 0.9]),
        ("ema_decays", [0.0, 0.9]),
        ("ema_decays", [0.9, 1.0]),
        ("spawn_budget", 0),
        ("expansion_seed", -1),
        ("expansion_seed", 2**64),  # the Philox key is two uint64 words
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
    ])
    def test_field_outside_its_domain_is_a_config_error(self, key, value):
        """Each value would otherwise fail deep inside a seed's set-up."""
        data = config_to_dict(_fast())
        data[key] = value
        with pytest.raises(ConfigError, match=key):
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
        ("expansion_seed", 0), ("expansion_seed", None),
        ("expansion_seed", 2**64 - 1),
        ("activation", "tanh"), ("lam", 100), ("lr", np.float64(0.01)),
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

    def test_pinned_expansion_seed_is_shared_across_stream_seeds(self):
        config = _fast(expansion_seed=77)
        state_a = SeedRunState(config, 1)
        state_b = SeedRunState(config, 2)
        np.testing.assert_array_equal(state_a.expansion.weights,
                                      state_b.expansion.weights)
        unpinned = _fast()
        state_c = SeedRunState(unpinned, 1)
        state_d = SeedRunState(unpinned, 2)
        assert np.abs(state_c.expansion.weights
                      - state_d.expansion.weights).max() > 1e-6

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

    @pytest.mark.parametrize("tracked, calls", [((), 2), (("prototype",), 3)])
    def test_final_step_scores_the_routing_baseline_like_the_others(
            self, monkeypatch, tracked, calls):
        """The final inference routes by the routing kind once, and the
        baseline loop routes by every baseline it holds, that kind too."""
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

    def test_gram_checkpoints_as_held_and_resumes_bit_exactly(self, tmp_path):
        """Past M rows a checkpoint stores G as the router holds it: its
        lower triangle in Fortran order, zeros above the diagonal.  Resume
        takes it back bit for bit and finishes the seed as the uninterrupted
        run does."""
        config = _fast(track_baselines=("kmeans",))
        direct, _ = run_seed(config, 1)
        path = tmp_path / "ck.npz"
        state = _checkpoint_at(config, PAST_M, path)
        with np.load(path, allow_pickle=False) as data:
            stored = data["gram"]
        assert stored.flags.f_contiguous and not stored.flags.c_contiguous
        assert stored.tobytes("F") == state.router.gram.tobytes("F")
        assert not np.triu(stored, 1).any()
        resumed = resume(path, config)
        assert resumed.router.gram.flags.f_contiguous
        assert resumed.router.gram.tobytes("F") == stored.tobytes("F")
        assert run_seed(config, 1, state=resumed)[0] == direct

    def test_primal_checkpoint_allocates_no_m_by_m_array(self, tmp_path):
        """At M=1024 a checkpoint past M rows peaks below 1.1 times G's
        bytes: it writes G as held, so the one transient of G's size is
        numpy's write buffer (at most 16 MiB)."""
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
        assert peak < 1.1 * state.router.gram.nbytes

    def test_resumed_gram_updates_in_place_and_saves_as_held(self, tmp_path):
        """Past M rows, resume normalises G whatever its stored layout, later
        batches update that very array, and checkpoint saves it as held."""
        config = _fast()
        state = SeedRunState(config, 1)
        for _ in range(PAST_M):
            run_batch(state, state.cursor.next_batch())
        path = tmp_path / "ck.npz"
        checkpoint(state, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: np.array(v) for k, v in data.items()}
        arrays["gram"] = np.ascontiguousarray(arrays["gram"])
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

        resumed = resume(path, config)
        gram = resumed.router.gram
        before = gram.copy()
        run_batch(resumed, resumed.cursor.next_batch())
        assert resumed.router.gram is gram
        assert not np.array_equal(np.tril(gram), np.tril(before))
        checkpoint(resumed, path)
        with np.load(path, allow_pickle=False) as data:
            saved = data["gram"]
        assert saved.flags.f_contiguous
        assert saved.tobytes("F") == gram.tobytes("F")

    @pytest.mark.parametrize("edit", ["drop", "add"])
    def test_trained_classes_that_are_not_the_streamed_labels_are_refused(
            self, tmp_path, edit):
        """Resume rebuilds the streamed rows from the schedule; a pool that
        dropped a streamed class from every expert, or trained one not yet
        streamed, is refused."""
        config, path = _fast(), tmp_path / "ck.npz"
        state = _checkpoint_at(config, 3, path)
        entries = _read(path)
        if edit == "drop":
            entries["trained_classes"][:, min(state.seen)] = False
        else:
            unstreamed = min(set(range(6)) - state.seen)
            entries["trained_classes"][-1, unstreamed] = True
        _write(path, entries)
        with pytest.raises(ConfigError, match="trained_classes .* are not "
                           "the classes .* of the streamed rows"):
            resume(path, config)

    def test_altered_config_is_refused(self, tmp_path):
        config = _fast()
        state = SeedRunState(config, 1)
        path = tmp_path / "ck.npz"
        checkpoint(state, path)
        with pytest.raises(ConfigError):
            resume(path, _fast(lam=999.0))

    def test_tampered_version_is_refused(self, tmp_path):
        config = _fast()
        state = SeedRunState(config, 1)
        path = tmp_path / "ck.npz"
        checkpoint(state, path)
        _write(path, {**_read(path), "version": 999})
        with pytest.raises(ConfigError, match="checkpoint version 999 != "
                           "engine checkpoint version 7"):
            resume(path, config)

    def test_version_5_checkpoint_is_refused_naming_its_version(
            self, tmp_path):
        """Up to v5 a checkpoint kept its counters, the pool's scalars and
        the prediction log in one JSON ``meta`` entry."""
        config, path = _fast(), tmp_path / "ck.npz"
        state = _checkpoint_at(config, 3, path)
        entries = _read(path)
        moved = ("version", "config_hash", "seed", "batch_index",
                 "samples_seen", "samples_under_current", "trained_classes",
                 "predictions_log", "jitter_used")
        meta = {key: entries.pop(key).tolist() for key in moved}
        meta.update(version=5, predictions_log=state.predictions_log,
                    trained_classes=[sorted(c)
                                     for c in state.pool.trained_classes])
        _write(path, {**entries, "meta": json.dumps(meta)})
        with pytest.raises(ConfigError, match="checkpoint version 5 != "
                           "engine checkpoint version 7"):
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
                                     "batch_index", "predictions_log",
                                     "samples_seen", "jitter_used",
                                     "trained_classes", "gram", "rows",
                                     "row_expert", "factor", "factor_diag",
                                     "baseline_kmeans_seen",
                                     "adapter_scale", "bank_w"])
    def test_checkpoint_missing_an_entry_is_refused(self, tmp_path, key):
        """Each counter, the log, the pool's class mask and each entry of a
        dual-form router checkpoint, or G past M rows."""
        config = _fast(track_baselines=("kmeans",))
        state = SeedRunState(config, 1)
        for _ in range(PAST_M if key in ("gram", "factor_diag")
                       else DUAL_SOLVED):
            run_batch(state, state.cursor.next_batch())
        path = tmp_path / "ck.npz"
        checkpoint(state, path)
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


def _shrink_cols(key, cols):
    return lambda entries: entries.update({key: entries[key][:, :cols]})


def _bump(key, by):
    return lambda entries: entries.update({key: entries[key] + by})


def _edit_log(edit):
    """Apply ``edit`` to the prediction log the checkpoint holds as JSON."""
    def edit_entries(entries):
        log = json.loads(entries["predictions_log"].item())
        edit(log)
        entries["predictions_log"] = json.dumps(log)
    return edit_entries


def _train_class_999(entries):
    trained = np.zeros((2, 1000), dtype=bool)
    trained[:, :6] = entries["trained_classes"]
    trained[-1, 999] = True
    entries["trained_classes"] = trained


# Each edit leaves a checkpoint that still reads and hash-matches but whose
# shapes, counts, class ids, G's zero upper triangle or prediction log do not
# fit the config below and its schedule: M=64, d=8, 6 classes, 3 sessions,
# 13 batches and, at batch 7, two experts.  Each case names the entry the
# refusal must name.
TAMPERED = {
    "gram_32x32": ("gram", lambda entries: entries.update(
        gram=np.zeros((32, 32)))),
    "gram_upper_corner": ("gram", lambda entries: entries.update(
        gram=entries["gram"] + np.eye(64, k=63))),
    "proto_10_rows": ("proto", lambda entries: entries.update(
        proto=entries["proto"][:10])),
    "online_w_d3": ("online_w", _shrink_cols("online_w", 3)),
    "adapter_scale_d3": ("adapter_scale", _shrink_cols("adapter_scale", 3)),
    "prototype_means_width_7": ("baseline_prototype_means", _shrink_cols(
        "baseline_prototype_means", 7)),
    "prototype_one_expert_short": (
        "baseline_prototype_counts", lambda entries: entries.update(
            {key: entries[key][:-1] for key in ("baseline_prototype_counts",
                                                "baseline_prototype_means")})),
    "kmeans_seen_negative": ("baseline_kmeans_seen", lambda entries:
                             entries.update(baseline_kmeans_seen=-entries[
                                 "baseline_kmeans_seen"])),
    "batch_index_plus_2": ("batch_index", _bump("batch_index", 2)),
    "batch_index_past_the_schedule": ("batch_index",
                                      _bump("batch_index", 100)),
    "samples_seen_plus_1": ("samples_seen", _bump("samples_seen", 1)),
    "trained_class_999": ("trained_classes", _train_class_999),
    "samples_under_current_negative": (
        "samples_under_current",
        lambda entries: entries.update(samples_under_current=-5)),
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
    """``resume`` reads a checkpoint's log through ``metrics.check_log``,
    the checker of ``gclstream metrics``: each mutant of a log at the end of
    the stream is refused at its record, and the untouched log resumes."""
    config, path = _fast(), tmp_path / "ck.npz"
    state = _checkpoint_at(config, len(SeedRunState(config, 1).schedule
                                       .batches), path)
    entries = _read(path)
    assert len(state.predictions_log) == 6
    assert resume(path, config).predictions_log == state.predictions_log
    for log, index in _mutants(state.predictions_log):
        _write(path, {**entries, "predictions_log": json.dumps(log)})
        with pytest.raises(ConfigError, match=rf"ck\.npz: predictions_log "
                           rf"record {index}: seed 1's "):
            resume(path, config)


# Every entry of a checkpoint of _fast's stream (M=64, d=8, 6 classes) with
# two experts, an EMA bank of two heads and every baseline tracked, besides
# the router's form-specific ones, as (dtype, shape); a str entry's dtype is
# its kind, "U", whatever its length.
PINNED = {
    "version": ("<i8", ()), "config_hash": ("U", ()), "seed": ("<i8", ()),
    "batch_index": ("<i8", ()), "predictions_log": ("U", ()),
    "samples_seen": ("<i8", ()), "proto": ("<f8", (64, 2)),
    "online_w": ("<f8", (6, 8)), "online_b": ("<f8", (6,)),
    "samples_under_current": ("<i8", ()),
    "trained_classes": ("|b1", (2, 6)),
    "adapter_scale": ("<f8", (2, 8)), "adapter_shift": ("<f8", (2, 8)),
    "bank_w": ("<f8", (2, 2, 6, 8)), "bank_b": ("<f8", (2, 2, 6)),
    "baseline_prototype_counts": ("<i8", (2,)),
    "baseline_prototype_means": ("<f8", (2, 64)),
    "baseline_naive_bayes_counts": ("<i8", (2,)),
    "baseline_naive_bayes_means": ("<f8", (2, 64)),
    "baseline_naive_bayes_m2": ("<f8", (2, 64)),
    "baseline_kmeans_seen": ("<i8", (2,)),
    "baseline_kmeans_reservoir_0": ("<f8", (512, 64)),
    "baseline_kmeans_reservoir_1": ("<f8", (512, 64)),
    "baseline_trained_shallow_W1": ("<f8", (512, 64)),
    "baseline_trained_shallow_b1": ("<f8", (512,)),
    "baseline_trained_shallow_W2": ("<f8", (2, 512)),
    "baseline_trained_shallow_b2": ("<f8", (2,)),
}
# The router's own entries past M rows (G, with no factor held, so no
# diagonal, kept rows or capacitance factor), past M rows with a factor held
# (L's diagonal, the 23 rows kept since and the capacitance factor of the 11
# whitened ones; by then a third expert has spawned) and in the dual form (its 61 rows, their experts, the factor
# of the 49 rows its last solve saw); each with its factor's jitter.
PINNED_PRIMAL = {**PINNED, "gram": ("<f8", (64, 64)),
                 "factor_diag": ("<f8", (0,)), "rows": ("<f8", (0, 64)),
                 "factor": ("<f8", (0, 0)), "jitter_used": ("<f8", ())}
PINNED_HELD = {"gram": ("<f8", (64, 64)), "factor_diag": ("<f8", (64,)),
               "rows": ("<f8", (23, 64)), "factor": ("<f8", (11, 11)),
               "jitter_used": ("<f8", ())}
PINNED_DUAL = {**PINNED, "rows": ("<f8", (61, 64)),
               "row_expert": ("<i8", (61,)), "factor": ("<f8", (49, 49)),
               "jitter_used": ("<f8", ())}


@pytest.fixture(scope="module")
def every_entry(tmp_path_factory) -> dict:
    """Batch number -> entries of a checkpoint at DUAL_SOLVED, PAST_M and
    HELD batches with every baseline tracked."""
    config = _fast(track_baselines=BASELINE_KINDS)
    path = tmp_path_factory.mktemp("every_entry") / "ck.npz"
    checkpoints = {}
    for at in (DUAL_SOLVED, PAST_M, HELD):
        experts = _checkpoint_at(config, at, path).pool.num_experts
        assert experts == (3 if at == HELD else 2)
        checkpoints[at] = _read(path)
    return checkpoints


def _pinned(entries: dict) -> dict:
    return {key: ("U" if value.dtype.kind == "U" else value.dtype.str,
                  value.shape) for key, value in entries.items()}


def test_checkpoint_format_is_pinned(every_entry):
    """The v7 entries of a checkpoint past M rows: the router stores G,
    and with a factor held L's diagonal, the kept rows and their capacitance
    factor.  No ledger entry: resume replays the prediction log.  No
    streamed mask or seen classes: the schedule and the pool give them."""
    entries = every_entry[PAST_M]
    assert _pinned(entries) == PINNED_PRIMAL
    assert entries["version"] == 7 and entries["samples_seen"] == 73
    assert not np.triu(entries["gram"], 1).any()
    entries = every_entry[HELD]
    assert _pinned({key: entries[key] for key in PINNED_HELD}) == PINNED_HELD
    assert entries["samples_seen"] == 108
    assert (entries["factor_diag"] > 0).all()


def test_dual_checkpoint_format_is_pinned(every_entry):
    """The v7 entries of a checkpoint in the dual form."""
    entries = every_entry[DUAL_SOLVED]
    assert _pinned(entries) == PINNED_DUAL
    assert entries["samples_seen"] == 61 and entries["jitter_used"] == 0.0


def _ill_typed(value: np.ndarray):
    """``value`` cast to another dtype, as strings, and with one more
    axis."""
    kind = value.dtype.kind
    yield value.astype({"f": np.float32, "i": np.float64, "b": np.int64,
                        "U": np.bytes_}[kind])
    if kind != "U":
        yield value.astype(str)
    yield value[None]


@pytest.mark.parametrize("at, entry", [
    *((DUAL_SOLVED, entry) for entry in PINNED_DUAL),
    *((PAST_M, entry) for entry in PINNED_PRIMAL),
    *((HELD, entry) for entry in ("factor_diag", "rows", "factor"))])
def test_ill_typed_entry_is_refused_by_name(tmp_path, every_entry, at,
                                            entry):
    """Each entry of a dual and of a primal checkpoint, cast to another
    dtype (an int count to float, say), to strings or to one more axis, is
    refused as a config error naming it."""
    config, path = _fast(track_baselines=BASELINE_KINDS), tmp_path / "ck.npz"
    for value in _ill_typed(every_entry[at][entry]):
        _write(path, {**every_entry[at], entry: value})
        why = re.escape(f"dtype {value.dtype}" if value.ndim == np.ndim(
            every_entry[at][entry]) else f"shape {value.shape}")
        with pytest.raises(ConfigError, match=rf"ck\.npz: {entry} has {why}"):
            resume(path, config)


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
