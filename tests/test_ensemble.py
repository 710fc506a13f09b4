"""Head-bank aggregation rules and whole-pool inference over given
selections."""

import numpy as np
import pytest

from gclstream.analytic_router import (
    accumulate, new_router_state, route, solve,
)
from gclstream.ensemble import (
    AGGREGATIONS, EnsembleConfig, ensemble_predict, full_inference,
)
from gclstream.errors import ShapeError
from gclstream.expansion import ExpandedBatch, RandomExpansion
from gclstream.experts import (
    MASK_NEG, EmaBank, ExpertAdapter, Head, LogitMask, masked_softmax,
    zero_head, ExpertPool,
)

from oracles import entropy_ref


def _open_mask(C):
    return LogitMask(np.zeros(C), "none")


def _prob_heads(*prob_rows):
    """Heads over d=1 features whose masked softmax at feature [1] equals the
    given probability rows exactly (logits = log p)."""
    heads = [Head(np.log(np.array(p))[:, None], np.zeros(len(p)))
             for p in prob_rows]
    return heads


class TestAggregationsByHand:
    """Two heads producing [0.7, 0.3] and [0.4, 0.6] on one sample."""

    def setup_method(self):
        online, shadow = _prob_heads([0.7, 0.3], [0.4, 0.6])
        self.online = online
        self.bank = EmaBank([0.9], [shadow])
        self.adapter = ExpertAdapter(0, np.zeros(1), np.zeros(1))
        self.x = np.array([[1.0]])
        self.mask = _open_mask(2)

    def _scores(self, aggregation):
        z, yhat = ensemble_predict(self.x, self.adapter, self.bank,
                                   self.online, self.mask,
                                   EnsembleConfig(aggregation))
        return z[0], yhat[0]

    def test_softmax_max_takes_elementwise_max_probability(self):
        z, yhat = self._scores("softmax_max")
        np.testing.assert_allclose(z, [0.7, 0.6], atol=1e-12)
        assert yhat == 0

    def test_softmax_mean_averages_probabilities(self):
        z, yhat = self._scores("softmax_mean")
        np.testing.assert_allclose(z, [0.55, 0.45], atol=1e-12)
        assert yhat == 0

    def test_softmax_min_entropy_picks_the_sharper_head(self):
        assert entropy_ref([0.7, 0.3]) < entropy_ref([0.4, 0.6])
        z, yhat = self._scores("softmax_min_entropy")
        np.testing.assert_allclose(z, [0.7, 0.3], atol=1e-12)
        assert yhat == 0

    def test_min_entropy_softmaxes_the_chosen_raw_logits(self):
        z, yhat = self._scores("min_entropy")
        np.testing.assert_allclose(z, [0.7, 0.3], atol=1e-12)
        assert yhat == 0

    def test_mean_combines_raw_logits_then_softmaxes_once(self):
        z, yhat = self._scores("mean")
        geo = np.sqrt([0.7 * 0.4, 0.3 * 0.6])
        np.testing.assert_allclose(z, geo / geo.sum(), atol=1e-12)
        assert yhat == 0

    def test_max_prob_combines_raw_logits_then_softmaxes_once(self):
        z, yhat = self._scores("max_prob")
        np.testing.assert_allclose(z, [0.7 / 1.3, 0.6 / 1.3], atol=1e-12)
        assert yhat == 0


class TestEnsembleProperties:
    def test_bankless_prediction_equals_online_masked_softmax(self):
        rng = np.random.default_rng(0)
        online = Head(rng.standard_normal((5, 3)), rng.standard_normal(5))
        adapter = ExpertAdapter(0, rng.uniform(-0.2, 0.2, 3), np.zeros(3))
        X = rng.standard_normal((8, 3))
        mask = _open_mask(5)
        for bank in (None, EmaBank([], [])):
            z, yhat = ensemble_predict(X, adapter, bank, online, mask,
                                       EnsembleConfig("softmax_max"))
            direct = masked_softmax(online.logits(adapter.adapted(X)),
                                    mask.values)
            np.testing.assert_allclose(z, direct, atol=1e-14)
            np.testing.assert_array_equal(yhat, np.argmax(direct, axis=1))

    def test_every_aggregation_zeroes_masked_classes(self):
        rng = np.random.default_rng(1)
        online = Head(rng.standard_normal((6, 4)), rng.standard_normal(6))
        bank = EmaBank([0.9, 0.99],
                       [Head(rng.standard_normal((6, 4)), np.zeros(6))
                        for _ in range(2)])
        adapter = ExpertAdapter(0, np.zeros(4), np.zeros(4))
        X = rng.standard_normal((16, 4))
        values = np.array([0.0, MASK_NEG, 0.0, MASK_NEG, 0.0, MASK_NEG])
        mask = LogitMask(values, "seen_class")
        for aggregation in AGGREGATIONS:
            z, yhat = ensemble_predict(X, adapter, bank, online, mask,
                                       EnsembleConfig(aggregation))
            assert np.all(z[:, [1, 3, 5]] == 0.0), aggregation
            assert np.all(np.isin(yhat, [0, 2, 4])), aggregation

    def test_entropy_tie_prefers_the_online_head(self):
        online, shadow = _prob_heads([0.5, 0.5], [0.5, 0.5])
        shadow.weights += np.array([[1.0], [1.0]])  # same softmax, new logits
        bank = EmaBank([0.9], [shadow])
        adapter = ExpertAdapter(0, np.zeros(1), np.zeros(1))
        z, _ = ensemble_predict(np.array([[1.0]]), adapter, bank, online,
                                _open_mask(2),
                                EnsembleConfig("softmax_min_entropy"))
        np.testing.assert_allclose(z[0], [0.5, 0.5], atol=1e-12)

    def test_min_entropy_names_give_bit_equal_scores(self):
        """Both names take the picked head's masked softmax, which is bit
        for bit the masked softmax of that head's raw logits."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            C, d, B = rng.integers(2, 8), rng.integers(1, 5), rng.integers(1, 9)
            heads = [Head(rng.standard_normal((C, d)) * rng.uniform(0.1, 9),
                          rng.standard_normal(C)) for _ in range(3)]
            bank = EmaBank([0.9, 0.99], heads[1:])
            adapter = ExpertAdapter(0, rng.standard_normal(d), np.zeros(d))
            X = rng.standard_normal((B, d))
            values = np.where(rng.random(C) < 0.3, MASK_NEG, 0.0)
            values[rng.integers(C)] = 0.0
            mask = LogitMask(values, "seen_class")
            soft, picked = (ensemble_predict(X, adapter, bank, heads[0], mask,
                                             EnsembleConfig(name))[0]
                            for name in ("softmax_min_entropy", "min_entropy"))
            assert soft.tobytes() == picked.tobytes()
            logits = np.stack([h.logits(adapter.adapted(X)) for h in heads])
            probs = np.stack([masked_softmax(z, values) for z in logits])
            pick = np.argmin([[entropy_ref(p) for p in head] for head in probs],
                             axis=0)
            chosen = masked_softmax(logits[pick, np.arange(B)], values)
            assert chosen.tobytes() == picked.tobytes()

    def test_unknown_aggregation_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            EnsembleConfig("median")

    def test_mask_width_mismatch_raises(self):
        online = zero_head(3, 2)
        adapter = ExpertAdapter(0, np.zeros(2), np.zeros(2))
        with pytest.raises(ShapeError):
            ensemble_predict(np.zeros((1, 2)), adapter, None, online,
                             _open_mask(4), EnsembleConfig())


def _two_expert_pool(rng, d=2, C=4):
    pool = ExpertPool(d=d, num_classes=C, decays=(0.9,), rng=rng)
    pool.spawn()
    pool.observe([0, 1])
    pool.online.weights[:] = rng.standard_normal((C, d))
    pool.spawn()
    pool.observe([2, 3])
    return pool


class TestFullInference:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.mask = _open_mask(4)
        self.config = EnsembleConfig("softmax_max")

    def test_single_expert_is_a_plain_linear_classifier(self):
        """With one expert and no bank the whole pipeline collapses to
        argmax of the online head over adapted features."""
        rng = np.random.default_rng(3)
        pool = ExpertPool(d=2, num_classes=4, decays=(), rng=rng)
        pool.spawn()
        pool.online.weights[:] = rng.standard_normal((4, 2))
        X = rng.standard_normal((12, 2))
        _, predictions = full_inference(X, np.zeros(12, dtype=np.int64),
                                        pool, self.mask, self.config)
        direct = pool.online.logits(pool.adapters[0].adapted(X))
        np.testing.assert_array_equal(predictions, np.argmax(direct, axis=1))

    def test_each_row_is_predicted_by_its_selected_expert(self):
        pool = _two_expert_pool(self.rng)
        X = self.rng.standard_normal((6, 2))
        selections = np.array([1, 0, 1, 1, 0, 0])
        scores, predictions = full_inference(X, selections, pool, self.mask,
                                             self.config)
        for e in (0, 1):
            rows = selections == e
            want_scores, want_predictions = ensemble_predict(
                X[rows], pool.adapters[e], pool.banks[e], pool.online,
                self.mask, self.config)
            np.testing.assert_array_equal(scores[rows], want_scores)
            np.testing.assert_array_equal(predictions[rows], want_predictions)

    def test_selections_must_cover_every_row(self):
        pool = _two_expert_pool(self.rng)
        with pytest.raises(ShapeError):
            full_inference(np.zeros((3, 2)), np.zeros(2, dtype=np.int64),
                           pool, self.mask, self.config)

    def test_empty_pool_raises(self):
        empty = ExpertPool(d=2, num_classes=4, decays=(), rng=self.rng)
        with pytest.raises(ValueError):
            full_inference(np.zeros((2, 2)), np.zeros(2, dtype=np.int64),
                           empty, self.mask, self.config)


class TestGoldenMiniPipeline:
    """A fixed seed, 2 classes, 2 experts, d=4, M=16 mini-run whose routing
    and predictions are frozen; any drift in expansion keying, ridge algebra,
    training order, or aggregation shows up here as a bit-level diff."""

    def _build(self):
        rng = np.random.default_rng(1234)
        expansion = RandomExpansion(4, 16, seed=5)
        pool = ExpertPool(d=4, num_classes=2, decays=(0.9,),
                          rng=np.random.default_rng(99))
        router = new_router_state(16, 10.0, num_experts=1)
        from gclstream.experts import build_mask, train_step
        from gclstream.analytic_router import grow

        X0 = rng.standard_normal((12, 4)) + np.array([3.0, 0, 0, 0])
        X1 = rng.standard_normal((12, 4)) - np.array([3.0, 0, 0, 0])
        probe = np.vstack([X0[8:], X1[8:]])
        for e, (X, label) in enumerate(((X0[:8], 0), (X1[:8], 1))):
            pool.spawn()
            if e == 1:
                grow(router, 2)
            y = np.full(8, label)
            mask = build_mask({label}, {0, label}, "none", 2)
            train_step(pool.adapters[-1], pool.online, X, y, mask,
                       lr=0.05, iters=3, bank=pool.banks[-1])
            pool.observe(y)
            accumulate(router,
                       ExpandedBatch(expansion(pool.adapters[-1].adapted(X)),
                                     e))
        solve(router)
        _, selections = route(expansion(probe), router)
        return (selections, *full_inference(probe, selections, pool,
                                            LogitMask(np.zeros(2), "none"),
                                            EnsembleConfig("softmax_max")))

    def test_rerun_is_bit_identical(self):
        for a, b in zip(self._build(), self._build()):  # selections, scores,
            np.testing.assert_array_equal(a, b)         # predictions

    def test_frozen_golden_records(self):
        selections, scores, predictions = self._build()
        np.testing.assert_array_equal(selections, GOLDEN_SELECTIONS)
        np.testing.assert_array_equal(predictions, GOLDEN_PREDICTIONS)
        np.testing.assert_allclose(scores, GOLDEN_SCORES, rtol=0, atol=1e-12)


# captured from the first verified run of the mini-pipeline above
GOLDEN_SELECTIONS = [0, 0, 0, 0, 1, 1, 1, 1]
GOLDEN_PREDICTIONS = [0, 0, 0, 0, 1, 1, 1, 1]
GOLDEN_SCORES = [
    [0.7869305681250619, 0.46373661671140548],
    [0.71259471316150713, 0.47122422964609112],
    [0.65168791781967106, 0.48002655067831812],
    [0.72965557397267999, 0.46095264232157102],
    [0.33315636316794928, 0.758483953317582],
    [0.24999984628562474, 0.87597981681266424],
    [0.28067221464902287, 0.8351167091698003],
    [0.28649066614613344, 0.80029828707356987],
]
