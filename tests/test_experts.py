"""Experts: adapters, EMA banks, logit masks, masked CE, and the pool."""

import numpy as np
import pytest

from gclstream.experts import (
    MASK_NEG, MASK_KINDS, ExpertAdapter, Head, zero_head, EmaBank,
    ema_update, LogitMask, build_mask, masked_softmax, masked_ce_loss,
    train_step, warm_start, ExpertPool,
)
from gclstream.errors import NumericalError, ShapeError

from oracles import fd_gradient, masked_ce_ref, ema_path


def _mask(values):
    return LogitMask(np.array(values, dtype=np.float64), "none")


def _open_mask(num_classes):
    return LogitMask(np.zeros(num_classes), "none")


class TestAdapter:
    def test_zero_parameters_are_the_identity(self):
        adapter = ExpertAdapter(0, np.zeros(3), np.zeros(3))
        X = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(adapter.adapted(X), X)

    def test_affine_map_by_hand(self):
        adapter = ExpertAdapter(0, np.array([1.0, -0.5]), np.array([0.0, 2.0]))
        np.testing.assert_array_equal(
            adapter.adapted(np.array([[2.0, 4.0]])), [[4.0, 4.0]])

    def test_frozen_adapter_rejects_writes(self):
        adapter = ExpertAdapter(0, np.zeros(2), np.zeros(2))
        adapter.freeze()
        assert adapter.frozen
        with pytest.raises(ValueError):
            adapter.scale[0] = 1.0
        with pytest.raises(ValueError):
            adapter.shift[0] = 1.0


class TestWarmStart:
    def test_mean_of_priors(self):
        a = ExpertAdapter(0, np.array([0.2]), np.array([1.0]))
        b = ExpertAdapter(1, np.array([0.4]), np.array([3.0]))
        merged = warm_start([a, b], expert_id=2)
        np.testing.assert_allclose(merged.scale, [0.3])
        np.testing.assert_allclose(merged.shift, [2.0])

    def test_single_prior_copies_it(self):
        a = ExpertAdapter(0, np.array([0.2, -0.1]), np.array([1.0, 0.5]))
        merged = warm_start([a], expert_id=1)
        np.testing.assert_array_equal(merged.scale, a.scale)
        np.testing.assert_array_equal(merged.shift, a.shift)

    def test_first_expert_is_small_random(self):
        rng = np.random.default_rng(0)
        adapter = warm_start([], d=50, rng=rng)
        assert np.abs(adapter.scale).max() <= 0.01
        assert np.abs(adapter.shift).max() <= 0.01
        assert np.abs(adapter.scale).max() > 0.0

    def test_first_expert_without_rng_raises(self):
        with pytest.raises(ValueError):
            warm_start([])


class TestEmaBank:
    def test_two_updates_by_hand(self):
        """alpha=0.9 pulling 0 toward 1: shadow goes 0.1 then 0.19."""
        online = Head(np.ones((1, 1)), np.zeros(1))
        bank = EmaBank([0.9], [Head(np.zeros((1, 1)), np.zeros(1))])
        ema_update(bank, online)
        np.testing.assert_allclose(bank.heads[0].weights, [[0.1]])
        ema_update(bank, online)
        np.testing.assert_allclose(bank.heads[0].weights, [[0.19]])

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(5)
        targets = [rng.standard_normal((2, 3)) for _ in range(20)]
        online = Head(np.zeros((2, 3)), np.zeros(2))
        bank = EmaBank.from_online([0.7], online)
        seen = []
        for target in targets:
            online.weights[:] = target
            ema_update(bank, online)
            seen.append(bank.heads[0].weights.copy())
        expected = ema_path(targets, 0.7, np.zeros((2, 3)))
        np.testing.assert_allclose(seen, expected, atol=1e-12)

    def test_fixed_point_when_shadow_equals_online(self):
        online = Head(np.full((2, 2), 0.5), np.ones(2))
        bank = EmaBank.from_online([0.9, 0.99], online)
        ema_update(bank, online)
        for head in bank.heads:
            np.testing.assert_array_equal(head.weights, online.weights)
            np.testing.assert_array_equal(head.bias, online.bias)

    def test_update_contracts_toward_online(self):
        """Each update strictly shrinks the gap by the factor alpha."""
        online = Head(np.ones((1, 4)), np.zeros(1))
        bank = EmaBank([0.9], [Head(np.zeros((1, 4)), np.zeros(1))])
        gaps = []
        for _ in range(5):
            ema_update(bank, online)
            gaps.append(np.abs(bank.heads[0].weights - online.weights).max())
        ratios = np.diff(np.log(gaps))
        np.testing.assert_allclose(np.exp(ratios), 0.9, atol=1e-12)

    def test_decays_must_increase_and_lie_inside_unit_interval(self):
        with pytest.raises(ValueError):
            EmaBank([0.99, 0.9], [zero_head(1, 1), zero_head(1, 1)])
        with pytest.raises(ValueError):
            EmaBank([0.0], [zero_head(1, 1)])
        with pytest.raises(ValueError):
            EmaBank([1.0], [zero_head(1, 1)])
        with pytest.raises(ShapeError):
            EmaBank([0.9], [])

    def test_shape_mismatch_raises(self):
        bank = EmaBank([0.9], [zero_head(2, 3)])
        with pytest.raises(ShapeError):
            ema_update(bank, zero_head(2, 4))


class TestBuildMask:
    def test_batch_seen_class_by_hand(self):
        mask = build_mask({0, 2}, {0, 1, 2}, "batch_seen_class", 4)
        np.testing.assert_array_equal(mask.values,
                                      [0.0, MASK_NEG, 0.0, MASK_NEG])

    def test_none_is_all_zeros(self):
        mask = build_mask({0}, {0}, "none", 4)
        np.testing.assert_array_equal(mask.values, np.zeros(4))

    def test_seen_class_by_hand(self):
        mask = build_mask({0}, {0, 1, 2}, "seen_class", 4)
        np.testing.assert_array_equal(mask.values, [0.0, 0.0, 0.0, MASK_NEG])

    def test_random_keeps_batch_and_masks_unseen(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mask = build_mask({1}, {0, 1, 2}, "random", 5, rng)
            assert mask.values[1] == 0.0           # batch class always open
            assert mask.values[3] == MASK_NEG      # unseen always closed
            assert mask.values[4] == MASK_NEG
            for c in (0, 2):                       # seen non-batch: coin flip
                assert mask.values[c] in (0.0, MASK_NEG)

    def test_random_mask_is_reproducible_per_generator_state(self):
        a = build_mask({1}, set(range(8)), "random", 8,
                       np.random.default_rng(123))
        b = build_mask({1}, set(range(8)), "random", 8,
                       np.random.default_rng(123))
        np.testing.assert_array_equal(a.values, b.values)

    def test_random_without_rng_raises(self):
        with pytest.raises(ValueError):
            build_mask({0}, {0}, "random", 2)

    def test_batch_outside_seen_raises(self):
        with pytest.raises(ValueError):
            build_mask({3}, {0, 1}, "batch_seen_class", 4)

    def test_out_of_range_class_raises(self):
        with pytest.raises(ValueError):
            build_mask({0}, {0, 9}, "seen_class", 4)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            build_mask({0}, {0}, "everything", 2)

    def test_all_kinds_are_buildable(self):
        rng = np.random.default_rng(1)
        for kind in MASK_KINDS:
            mask = build_mask({0, 1}, {0, 1, 2}, kind, 4, rng)
            assert mask.kind == kind
            assert mask.unmasked[0] and mask.unmasked[1]


class TestMaskedSoftmax:
    def test_masked_entries_are_exactly_zero_and_rest_renormalize(self):
        p = masked_softmax(np.array([2.0, 5.0, 3.0]),
                           np.array([0.0, MASK_NEG, 0.0]))
        assert p[1] == 0.0
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-15)
        np.testing.assert_allclose(p[0], 1.0 / (1.0 + np.e), atol=1e-12)

    def test_rows_handled_independently(self):
        logits = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        p = masked_softmax(logits, np.array([0.0, 0.0, MASK_NEG]))
        assert p.shape == (2, 3)
        np.testing.assert_array_equal(p[:, 2], [0.0, 0.0])
        np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], atol=1e-15)

    def test_extreme_logits_stay_finite(self):
        p = masked_softmax(np.array([1e4, -1e4, 0.0]),
                           np.array([0.0, 0.0, MASK_NEG]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0], 1.0, atol=1e-12)


class TestMaskedCeLoss:
    def test_hand_computed_value(self):
        """logits [2,5,3], middle class masked, label 0: the open softmax is
        over [2,3], so the loss is ln(1+e)."""
        loss = masked_ce_loss(np.array([2.0, 5.0, 3.0]),
                              _mask([0.0, MASK_NEG, 0.0]), 0)
        np.testing.assert_allclose(loss, np.log(1.0 + np.e), atol=1e-12)
        np.testing.assert_allclose(loss, 1.3132616875182228, atol=1e-12)

    def test_uniform_logits_give_log_k(self):
        for k in (1, 2, 5):
            values = np.full(6, MASK_NEG)
            values[:k] = 0.0
            loss = masked_ce_loss(np.zeros(6), LogitMask(values, "none"), 0)
            np.testing.assert_allclose(loss, np.log(k), atol=1e-12)

    def test_singleton_support_is_lossless(self):
        values = np.array([0.0, MASK_NEG, MASK_NEG])
        loss = masked_ce_loss(np.array([-3.0, 8.0, 1.0]),
                              LogitMask(values, "none"), 0)
        np.testing.assert_allclose(loss, 0.0, atol=1e-12)

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            logits = rng.standard_normal(k) * 3.0
            values = np.where(rng.random(k) < 0.4, MASK_NEG, 0.0)
            open_idx = np.nonzero(values == 0.0)[0]
            if open_idx.size == 0:
                continue
            label = int(rng.choice(open_idx))
            got = masked_ce_loss(logits, LogitMask(values, "none"), label)
            want = masked_ce_ref(logits, values, label)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_masked_label_raises(self):
        with pytest.raises(ValueError):
            masked_ce_loss(np.zeros(3), _mask([0.0, MASK_NEG, 0.0]), 1)


class TestTrainStep:
    def _instance(self, seed, B=2, d=3, C=4):
        rng = np.random.default_rng(seed)
        adapter = ExpertAdapter(0, rng.uniform(-0.3, 0.3, d),
                                rng.uniform(-0.3, 0.3, d))
        online = Head(rng.standard_normal((C, d)) * 0.3,
                      rng.standard_normal(C) * 0.3)
        X = rng.standard_normal((B, d))
        y = rng.integers(C, size=B)
        values = np.zeros(C)
        closed = rng.random(C) < 0.3
        closed[y] = False
        values[closed] = MASK_NEG
        return adapter, online, X, y, LogitMask(values, "none")

    @staticmethod
    def _batch_loss(adapter, online, X, y, mask):
        total = 0.0
        for i in range(X.shape[0]):
            logits = online.logits(adapter.adapted(X[i:i + 1]))[0]
            total += masked_ce_loss(logits, mask, int(y[i]))
        return total / X.shape[0]

    def test_analytic_gradients_match_finite_differences(self):
        for seed in range(6):
            adapter, online, X, y, mask = self._instance(seed)
            loss = lambda: self._batch_loss(adapter, online, X, y, mask)
            fd_w = fd_gradient(loss, online.weights)
            fd_b = fd_gradient(loss, online.bias)
            fd_a = fd_gradient(loss, adapter.scale)
            fd_c = fd_gradient(loss, adapter.shift)
            before = {
                "w": online.weights.copy(), "b": online.bias.copy(),
                "a": adapter.scale.copy(), "c": adapter.shift.copy(),
            }
            train_step(adapter, online, X, y, mask, lr=1.0, iters=1)
            # one unit-lr step moves each parameter by exactly -gradient
            np.testing.assert_allclose(before["w"] - online.weights, fd_w,
                                       atol=2e-6)
            np.testing.assert_allclose(before["b"] - online.bias, fd_b,
                                       atol=2e-6)
            np.testing.assert_allclose(before["a"] - adapter.scale, fd_a,
                                       atol=2e-6)
            np.testing.assert_allclose(before["c"] - adapter.shift, fd_c,
                                       atol=2e-6)

    def test_zero_learning_rate_freezes_parameters(self):
        adapter, online, X, y, mask = self._instance(7)
        bank = EmaBank([0.5], [Head(online.weights + 1.0, online.bias + 1.0)])
        w0, b0 = online.weights.copy(), online.bias.copy()
        with pytest.raises(ValueError):
            train_step(adapter, online, X, y, mask, lr=0.0, iters=0)
        train_step(adapter, online, X, y, mask, lr=0.0, iters=1, bank=bank)
        np.testing.assert_array_equal(online.weights, w0)
        np.testing.assert_array_equal(online.bias, b0)
        # the bank is still pulled halfway toward the unchanged online head
        np.testing.assert_allclose(bank.heads[0].weights, w0 + 0.5)

    def test_loss_decreases_over_repeated_steps(self):
        adapter, online, X, y, mask = self._instance(11, B=16)
        first = train_step(adapter, online, X, y, mask, lr=0.1, iters=1)
        for _ in range(60):
            last = train_step(adapter, online, X, y, mask, lr=0.1, iters=1)
        assert last < first

    def test_returns_pre_step_loss(self):
        adapter, online, X, y, mask = self._instance(13)
        expected = self._batch_loss(adapter, online, X, y, mask)
        got = train_step(adapter, online, X, y, mask, lr=0.05, iters=3)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_saturated_singleton_support_has_zero_gradient(self):
        adapter = ExpertAdapter(0, np.zeros(2), np.zeros(2))
        online = zero_head(3, 2)
        values = np.array([0.0, MASK_NEG, MASK_NEG])
        X = np.array([[1.0, -2.0]])
        train_step(adapter, online, X, np.array([0]),
                   LogitMask(values, "none"), lr=1.0, iters=1)
        np.testing.assert_array_equal(online.weights, np.zeros((3, 2)))
        np.testing.assert_array_equal(adapter.scale, np.zeros(2))

    def test_ema_updates_after_every_iteration(self):
        adapter, online, X, y, mask = self._instance(17)
        bank_a = EmaBank.from_online([0.9], online)
        state_a = [h.clone() for h in bank_a.heads]
        # two chained single-iteration calls == one two-iteration call
        adapter2 = ExpertAdapter(1, adapter.scale.copy(), adapter.shift.copy())
        online2 = online.clone()
        bank_b = EmaBank([0.9], [h.clone() for h in state_a])
        train_step(adapter, online, X, y, mask, 0.2, 1, bank_a)
        train_step(adapter, online, X, y, mask, 0.2, 1, bank_a)
        train_step(adapter2, online2, X, y, mask, 0.2, 2, bank_b)
        np.testing.assert_allclose(bank_a.heads[0].weights,
                                   bank_b.heads[0].weights, atol=1e-14)

    def test_frozen_expert_rejects_training(self):
        adapter, online, X, y, mask = self._instance(19)
        adapter.freeze()
        with pytest.raises(ValueError):
            train_step(adapter, online, X, y, mask, lr=0.1, iters=1)

    def test_masked_batch_label_raises(self):
        adapter, online, X, y, mask = self._instance(23)
        values = np.full(online.weights.shape[0], MASK_NEG)
        with pytest.raises(ValueError):
            train_step(adapter, online, X, y, LogitMask(values, "none"),
                       lr=0.1, iters=1)

    def test_mismatched_batch_raises(self):
        adapter, online, X, y, mask = self._instance(29)
        with pytest.raises(ShapeError):
            train_step(adapter, online, X, y[:-1], mask, lr=0.1, iters=1)

    def test_non_finite_features_raise(self):
        adapter, online, X, y, mask = self._instance(31)
        X[0, 0] = np.inf
        with pytest.raises(NumericalError):
            train_step(adapter, online, X, y, mask, lr=0.1, iters=1)


class TestExpertPool:
    def _pool(self, decays=(0.9,)):
        rng = np.random.default_rng(0)
        return ExpertPool(d=4, num_classes=6, decays=decays, rng=rng)

    def test_spawn_freezes_predecessor_and_clones_bank(self):
        pool = self._pool()
        pool.spawn()
        pool.online.weights += 1.0
        pool.spawn()
        assert pool.num_experts == 2
        assert pool.adapters[0].frozen and not pool.adapters[1].frozen
        np.testing.assert_array_equal(pool.banks[1].heads[0].weights,
                                      pool.online.weights)

    def test_spawn_warm_starts_from_mean_of_priors(self):
        pool = self._pool()
        pool.spawn()
        pool.adapters[0].scale[:] = 0.2
        pool.spawn()
        np.testing.assert_allclose(pool.adapters[1].scale, 0.2)
        pool.adapters[1].scale[:] = 0.4
        pool.spawn()
        np.testing.assert_allclose(pool.adapters[2].scale, 0.3)

    def test_observe_records_classes_and_budget(self):
        pool = self._pool()
        pool.spawn()
        pool.observe(np.array([1, 1, 4]))
        assert pool.trained_classes[0] == {1, 4}
        assert pool.samples_under_current == 3

    def test_session_aligned_spawns_each_session_start(self):
        pool = self._pool()
        assert pool.should_spawn("session_aligned", True)
        pool.spawn()
        assert not pool.should_spawn("session_aligned", False)
        assert pool.should_spawn("session_aligned", True)

    def test_sample_budget_spawn_count_over_a_stream(self):
        """A budget of w samples cuts an N-sample stream into ceil(N/w)
        experts; 50 batches of 10 with w=100 gives 5."""
        pool = self._pool(decays=())
        for _ in range(50):
            if pool.should_spawn("sample_budget", False, budget=100):
                pool.spawn()
            elif pool.num_experts == 0:
                pool.spawn()
            pool.observe(np.zeros(10, dtype=int))
        assert pool.num_experts == 5

    def test_sample_budget_larger_than_stream_keeps_one_expert(self):
        pool = self._pool(decays=())
        for _ in range(20):
            if pool.should_spawn("sample_budget", False, budget=10_000):
                pool.spawn()
            pool.observe(np.zeros(10, dtype=int))
        assert pool.num_experts == 1

    def test_unknown_policy_or_missing_budget_raise(self):
        pool = self._pool()
        pool.spawn()
        with pytest.raises(ValueError):
            pool.should_spawn("weekly", True)
        with pytest.raises(ValueError):
            pool.should_spawn("sample_budget", False, budget=None)

    def test_reset_head_at_spawn_zeroes_the_online_head(self):
        rng = np.random.default_rng(1)
        pool = ExpertPool(d=4, num_classes=6, decays=(0.9,), rng=rng,
                          reset_head_at_spawn=True)
        pool.spawn()
        pool.online.weights += 2.0
        pool.spawn()
        np.testing.assert_array_equal(pool.online.weights, np.zeros((6, 4)))
        np.testing.assert_array_equal(pool.banks[1].heads[0].weights,
                                      np.zeros((6, 4)))

    def _train(self, pool, rng, experts):
        """Spawn ``experts`` experts, each trained on one batch."""
        for _ in range(experts):
            pool.spawn()
            X, y = rng.standard_normal((8, 4)), rng.integers(6, size=8)
            bank = pool.banks[-1] if pool.decays else None
            train_step(pool.adapters[-1], pool.online, X, y, _open_mask(6),
                       0.1, 2, bank)
            pool.observe(y)

    @pytest.mark.parametrize("decays", [(0.9, 0.99), ()])
    def test_state_load_round_trip(self, decays):
        pool = self._pool(decays)
        self._train(pool, np.random.default_rng(2), 3)
        snap = pool.state()
        assert snap["bank_w"].shape == (3, len(decays), 6, 4)
        assert snap["trained_classes"].shape == (3, 6)
        copy = self._pool(decays)
        copy.load(snap)
        assert [a.frozen for a in copy.adapters] == [True, True, False]
        assert not copy.adapters[0].scale.flags.writeable
        assert copy.trained_classes == pool.trained_classes
        assert [len(bank) for bank in copy.banks] == [len(decays)] * 3
        # both continue the same way: train the live expert, spawn another
        self._train(pool, np.random.default_rng(3), 1)
        self._train(copy, np.random.default_rng(3), 1)
        saved = copy.state()
        assert saved.keys() == pool.state().keys()
        for key, value in pool.state().items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(saved[key], value, err_msg=key)
            else:
                assert saved[key] == value, key

    def test_empty_pool_round_trip_writes_empty_expert_entries(self):
        """Before the first spawn every expert entry is there, with no
        rows."""
        snap = self._pool().state()
        assert {key: value.shape for key, value in snap.items()
                if key.startswith(("adapter", "bank", "trained"))} == {
            "adapter_scale": (0, 4), "adapter_shift": (0, 4),
            "bank_w": (0, 1, 6, 4), "bank_b": (0, 1, 6),
            "trained_classes": (0, 6)}
        copy = self._pool()
        copy.load(snap)
        assert copy.num_experts == 0 and copy.banks == []

    @pytest.mark.parametrize("d, num_classes, decays", [
        (3, 6, (0.9,)), (4, 5, (0.9,)), (4, 6, (0.9, 0.99))])
    def test_load_refuses_another_width_class_count_or_bank(
            self, d, num_classes, decays):
        pool = self._pool()
        self._train(pool, np.random.default_rng(2), 2)
        other = ExpertPool(d=d, num_classes=num_classes, decays=decays,
                           rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            other.load(pool.state())
