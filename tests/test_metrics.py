"""Continual-learning metrics, the ledger and the log replay."""

import numpy as np
import pytest

from gclstream.errors import ConfigError
from gclstream.metrics import (
    EVAL_FIELDS, MetricsLedger, a_auc, a_avg, a_last, accuracy, adapter_cka,
    bwt, f_last, replay, routing_accuracy, seed_metrics,
)

from oracles import (
    accuracy_ref, cka_gram_ref, routing_accuracy_ref, session_metrics_ref,
)

nan = np.nan


class TestSessionMatrixByHand:
    def test_two_session_forgetting_example(self):
        """Learn 0.9 then drop to 0.7 while the new session sits at 0.8."""
        R = np.array([[0.9, nan], [0.7, 0.8]])
        np.testing.assert_allclose(a_last(R), 0.75)
        np.testing.assert_allclose(a_avg(R), 0.85)
        np.testing.assert_allclose(f_last(R), 0.1)
        np.testing.assert_allclose(bwt(R), -0.2)

    def test_single_session(self):
        R = np.array([[0.8]])
        np.testing.assert_allclose(a_last(R), 0.8)
        np.testing.assert_allclose(a_avg(R), 0.8)
        np.testing.assert_allclose(f_last(R), 0.0)
        with pytest.raises(ValueError):
            bwt(R)

    def test_constant_matrix_has_no_forgetting_or_transfer(self):
        R = np.full((3, 3), 0.25)
        np.testing.assert_allclose(a_avg(R), 0.25)
        np.testing.assert_allclose(f_last(R), 0.0)
        np.testing.assert_allclose(bwt(R), 0.0)

    def test_three_session_decay(self):
        R = np.array([[0.9, nan, nan],
                      [0.6, 0.8, nan],
                      [0.3, 0.5, 0.7]])
        np.testing.assert_allclose(a_last(R), 0.5)
        np.testing.assert_allclose(a_avg(R), 0.8)
        np.testing.assert_allclose(f_last(R), 0.3)
        np.testing.assert_allclose(bwt(R), -0.45)

    def test_late_recovery_shows_zero_forgetting_and_positive_transfer(self):
        """The column max includes the final row, so a model that ends at its
        best shows f_last = 0 even after mid-run dips."""
        R = np.array([[0.4, nan, nan],
                      [0.2, 0.6, nan],
                      [0.75, 0.9, 0.8]])
        np.testing.assert_allclose(f_last(R), 0.0)
        np.testing.assert_allclose(bwt(R), (0.35 + 0.3) / 2)
        np.testing.assert_allclose(a_last(R), (0.75 + 0.9 + 0.8) / 3)

    def test_matches_reference_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            T = int(rng.integers(2, 6))
            R = rng.random((T, T))
            ref = session_metrics_ref(R)
            np.testing.assert_allclose(a_last(R), ref["a_last"], atol=1e-14)
            np.testing.assert_allclose(a_avg(R), ref["a_avg"], atol=1e-14)
            np.testing.assert_allclose(f_last(R), ref["f_last"], atol=1e-14)
            np.testing.assert_allclose(bwt(R), ref["bwt"], atol=1e-14)

    def test_incomplete_required_cells_raise(self):
        with pytest.raises(ValueError):
            a_last(np.array([[0.5, nan], [0.5, nan]]))
        with pytest.raises(ValueError):
            a_avg(np.array([[nan, nan], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            f_last(np.array([[nan, nan], [0.5, 0.5]]))


class TestAnytime:
    def test_mean_of_history(self):
        np.testing.assert_allclose(a_auc([0.2, 0.4, 0.6]), 0.4)
        np.testing.assert_allclose(a_auc([0.5, 0.5, 0.5, 0.5]), 0.5)

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            a_auc([])


class TestAccuracy:
    def test_plain_fraction(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 0, 4]) == 0.75
        assert accuracy_ref([1, 2, 3, 4], [1, 2, 0, 4]) == 0.75

    def test_empty_or_mismatched_raise(self):
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])


class TestSeedMetrics:
    FINAL = dict(predictions=[0, 1, 1, 2], selections=[0, 0, 1, 1],
                 labels=[0, 1, 2, 2], history=[{0, 1}, {2}])

    def test_full_suite_in_key_order(self):
        R = np.array([[0.9, nan], [0.7, 0.8]])
        metrics = seed_metrics([0.5, 1.0], R, **self.FINAL)
        assert list(metrics) == ["a_auc", "a_last", "a_avg", "f_last", "bwt",
                                 "final_accuracy", "routing_accuracy"]
        np.testing.assert_allclose(
            list(metrics.values()), [0.75, 0.75, 0.85, 0.1, -0.2, 0.75, 1.0])

    def test_unrecorded_parts_are_left_out(self):
        """No anytime point: no a_auc; an incomplete last row: no matrix
        metrics; one session: no backward transfer."""
        missing = seed_metrics([], np.full((2, 2), nan), **self.FINAL)
        assert list(missing) == ["final_accuracy", "routing_accuracy"]
        single = seed_metrics([1.0], np.array([[0.8]]), **self.FINAL)
        assert "bwt" not in single and single["a_last"] == 0.8


class TestRoutingAccuracy:
    def test_one_to_many_correspondence(self):
        """Routing to any expert that trained the class counts as a hit."""
        history = [{0, 1}, {1, 2}]
        selections = [0, 1, 1, 0]
        labels = [1, 1, 0, 2]
        assert routing_accuracy(selections, labels, history) == 0.5
        assert routing_accuracy_ref(selections, labels, history) == 0.5

    def test_single_expert_trained_on_everything_scores_one(self):
        history = [set(range(5))]
        assert routing_accuracy([0, 0, 0], [1, 3, 4], history) == 1.0

    def test_random_routing_on_confined_streams_hits_one_over_t(self):
        """Uniformly random selections on a stream whose classes live in
        exactly one expert hit with probability 1/T."""
        rng = np.random.default_rng(7)
        T, samples = 4, 10_000
        history = [set(range(5 * t, 5 * (t + 1))) for t in range(T)]
        labels = rng.integers(20, size=samples)
        selections = rng.integers(T, size=samples)
        value = routing_accuracy(selections, labels, history)
        assert abs(value - 1.0 / T) < 0.05


def _residuals(scales, shifts, probe):
    """Each diagonal adapter's residual on the probe, written out."""
    return [(1.0 + a) * probe + c - probe for a, c in zip(scales, shifts)]


class TestLinearCka:
    """``adapter_cka``: linear CKA of every pair of diagonal adapters'
    residuals, from one Gram of the probe."""

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(1)
        cka = adapter_cka(rng.standard_normal((3, 4)),
                          rng.standard_normal((10, 4)))
        np.testing.assert_allclose(np.diag(cka), 1.0, atol=1e-12)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(4)
        cka = adapter_cka([a, 3.7 * a], rng.standard_normal((10, 4)))
        np.testing.assert_allclose(cka, 1.0, atol=1e-12)

    def test_matches_gram_based_reference(self):
        """Against the N x N HSIC route on the residuals written out,
        shifts included: centring drops them."""
        rng = np.random.default_rng(4)
        for _ in range(10):
            scales, shifts = rng.standard_normal((2, 4, 5))
            probe = rng.standard_normal((12, 5))
            residuals = _residuals(scales, shifts, probe)
            want = [[cka_gram_ref(Za, Zb) for Zb in residuals]
                    for Za in residuals]
            np.testing.assert_allclose(adapter_cka(scales, probe), want,
                                       atol=1e-10)

    def test_values_live_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cka = adapter_cka(rng.standard_normal((4, 3)),
                              rng.standard_normal((8, 3)))
            assert (cka >= 0.0).all() and (cka <= 1.0 + 1e-12).all()
            np.testing.assert_allclose(cka, cka.T, atol=1e-15)

    def test_zero_residual_is_nan(self):
        """A zero-norm residual leaves CKA undefined: NaN in its row and
        column, finite elsewhere; a constant probe makes every pair NaN."""
        rng = np.random.default_rng(6)
        scales = rng.standard_normal((3, 4))
        scales[1] = 0.0
        cka = adapter_cka(scales, rng.standard_normal((10, 4)))
        assert np.isnan(cka[1]).all() and np.isnan(cka[:, 1]).all()
        assert np.isfinite(cka[np.ix_([0, 2], [0, 2])]).all()
        assert np.isnan(adapter_cka(scales, np.ones((6, 4)))).all()


class TestLedger:
    def test_anytime_and_session_rows_accumulate(self):
        ledger = MetricsLedger(2)
        ledger.record_anytime(0.25)
        ledger.record_anytime(0.75)
        ledger.record_session_row(0, [0.9])
        ledger.record_session_row(1, [0.7, 0.8])
        np.testing.assert_allclose(a_auc(ledger.anytime), 0.5)
        np.testing.assert_allclose(f_last(ledger.session_matrix), 0.1)

    def test_streamed_routing_accuracy_equals_batch_recount(self):
        rng = np.random.default_rng(6)
        history = [{0, 1}, {2}]
        ledger = MetricsLedger(1)
        selections = rng.integers(2, size=200)
        labels = rng.integers(3, size=200)
        for s in range(0, 200, 37):
            ledger.record_routing(selections[s:s + 37], labels[s:s + 37],
                                  history)
        want = routing_accuracy_ref(selections, labels, history)
        np.testing.assert_allclose(ledger.streamed_routing_accuracy, want)

    def test_out_of_range_accuracy_rejected(self):
        ledger = MetricsLedger(1)
        with pytest.raises(ValueError):
            ledger.record_anytime(1.5)
        with pytest.raises(ValueError):
            ledger.record_session_row(0, [-0.1])

    def test_empty_routing_history_raises(self):
        with pytest.raises(ValueError):
            MetricsLedger(1).streamed_routing_accuracy


def _record(phase, predictions, labels, step=None, selections=None):
    return {"phase": phase, "step": step, "ids": list(range(len(labels))),
            "labels": labels, "predictions": predictions,
            "selections": selections or [0] * len(labels)}


class TestReplay:
    """Two sessions: classes {0, 1} then {2}; expert 0 trained 0 and 1,
    expert 1 trained 2."""

    SESSIONS = [{0, 1}, {2}]
    HISTORY = [{0, 1}, {2}]
    LOG = [
        _record("anytime", [0, 1, 0], [0, 1, 1]),
        _record("session", [0, 1, 0], [0, 1, 1], step=0),
        _record("anytime", [0, 0, 2, 2], [0, 1, 2, 2]),
        _record("session", [0, 0, 2, 2], [0, 1, 2, 2], step=1),
        _record("final", [0, 0, 2, 2], [0, 1, 2, 2],
                selections=[0, 1, 1, 1]),
        _record("oracle", [0, 1, 2, 1], [0, 1, 2, 2],
                selections=[0, 0, 1, 1]),
    ]

    def test_rebuilds_the_ledger_and_every_logged_metric_in_order(self):
        ledger, metrics = replay(self.LOG, self.SESSIONS, self.HISTORY)
        np.testing.assert_array_equal(ledger.anytime, [2 / 3, 0.75])
        np.testing.assert_array_equal(ledger.session_matrix,
                                      [[2 / 3, nan], [0.5, 1.0]])
        assert (ledger.routing_hits, ledger.routing_attempts) == (3, 4)
        assert metrics == {
            "a_auc": a_auc([2 / 3, 0.75]), "a_last": 0.75,
            "a_avg": a_avg(ledger.session_matrix),
            "f_last": f_last(ledger.session_matrix),
            "bwt": bwt(ledger.session_matrix), "final_accuracy": 0.75,
            "routing_accuracy": 0.75, "num_experts": 2.0,
            "oracle_accuracy": 0.75, "oracle_a_last": 0.75}
        assert list(metrics)[-3:] == ["num_experts", "oracle_accuracy",
                                      "oracle_a_last"]

    def test_before_the_final_record_there_are_no_metrics(self):
        ledger, metrics = replay(self.LOG[:4], self.SESSIONS, self.HISTORY)
        assert metrics == {} and ledger.routing_attempts == 0
        assert len(ledger.anytime) == 2

    def test_oracle_a_last_needs_session_rows(self):
        log = [r for r in self.LOG if r["phase"] != "session"]
        _, metrics = replay(log, self.SESSIONS, self.HISTORY)
        assert "oracle_accuracy" in metrics and "a_last" not in metrics
        assert "oracle_a_last" not in metrics

    @pytest.mark.parametrize("phase, field", [
        (phase, field) for phase, fields in EVAL_FIELDS.items()
        for field in fields])
    def test_record_without_a_field_its_phase_reads_is_refused(self, phase,
                                                               field):
        log = [dict(r) for r in self.LOG]
        record = next(r for r in log if r["phase"] == phase)
        del record[field]
        with pytest.raises(ConfigError, match=rf"{phase} record lacks {field}"):
            replay(log, self.SESSIONS, self.HISTORY)

    @pytest.mark.parametrize("index, edit, why", [
        (1, {"step": 2}, "session step 2 outside 0..1"),
        (1, {"step": -1}, "session step -1 outside 0..1"),
        (1, {"step": 0.0}, "session step 0.0 outside 0..1"),
        (4, {"selections": [0, 1, 2, 1]}, "final selection 2 outside 0..1"),
        (0, {"labels": [0, 1]}, "anytime record's labels, predictions are "
                                "not lists of one nonzero length"),
        (4, {"selections": [0, 1]}, "final record's labels, predictions, "
                                    "selections are not lists"),
        (5, {"labels": 7}, "oracle record's labels, predictions are not"),
        (2, {"labels": [], "predictions": []}, "one nonzero length"),
    ])
    def test_record_that_replay_would_misread_is_refused(self, index, edit,
                                                         why):
        log = [dict(r) for r in self.LOG]
        log[index].update(edit)
        with pytest.raises(ConfigError, match=why):
            replay(log, self.SESSIONS, self.HISTORY)

    @pytest.mark.parametrize("phase", ["meta", "train", None])
    def test_record_of_another_phase_is_refused(self, phase):
        log = [*self.LOG, {**self.LOG[0], "phase": phase}]
        with pytest.raises(ConfigError, match="unexpected phase"):
            replay(log, self.SESSIONS, self.HISTORY)
