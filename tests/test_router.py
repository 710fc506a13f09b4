"""Streaming ridge router: accumulation, closed-form solve, growth, routing."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import gclstream.analytic_router as analytic_router
from gclstream.analytic_router import (
    new_router_state, accumulate, solve, route, grow, kept_cap,
)
from gclstream.expansion import ExpandedBatch, RandomExpansion
from gclstream.errors import NotSolvedError, NumericalError, ShapeError

from oracles import batch_ridge, one_hot, router_gram_ref


def _stream_instance(rng, M, N, T, lam):
    """Feed random rows through accumulate and return (state, phi, labels)."""
    phi = rng.standard_normal((N, M))
    labels = rng.integers(T, size=N)
    state = new_router_state(M, lam, num_experts=T)
    start = 0
    while start < N:
        size = int(rng.integers(1, 17))
        sl = slice(start, min(start + size, N))
        for e in range(T):
            pick = labels[sl] == e
            if pick.any():
                accumulate(state, ExpandedBatch(phi[sl][pick], e))
        start += size
    return state, phi, labels


class TestAccumulate:
    """G and Q are exact sums over the stream, order independent."""

    def test_single_row_outer_product_by_hand(self):
        """The dual form stores the row and its expert; G is their outer
        product, and stays so once a batch folds it into the primal G."""
        state = new_router_state(3, 1.0, num_experts=2)
        accumulate(state, ExpandedBatch(np.array([[1.0, 0.0, 2.0]]), 0))
        np.testing.assert_array_equal(state.gram[:, 0], [1, 0, 2])
        np.testing.assert_array_equal(state.row_expert, [0])
        np.testing.assert_array_equal(
            router_gram_ref(state), [[1, 0, 2], [0, 0, 0], [2, 0, 4]])
        np.testing.assert_array_equal(state.proto[:, 0], [1, 0, 2])
        np.testing.assert_array_equal(state.proto[:, 1], [0, 0, 0])
        assert state.samples_seen == 1
        accumulate(state, ExpandedBatch(np.array([[0.0, 1.0, 0.0]] * 3), 1))
        assert not state.dual and len(state.row_expert) == 0
        np.testing.assert_array_equal(
            router_gram_ref(state), [[1, 0, 2], [0, 3, 0], [2, 0, 4]])
        np.testing.assert_array_equal(state.proto[:, 1], [0, 3, 0])

    def test_two_identical_rows_double_the_outer_product(self):
        """In the dual form (1 and 2 rows of M=3) and the primal (4 and 8)."""
        row = np.array([[1.0, 0.0, 2.0]])
        for copies in (1, 4):
            once = new_router_state(3, 1.0)
            accumulate(once, ExpandedBatch(np.repeat(row, copies, 0), 0))
            twice = new_router_state(3, 1.0)
            accumulate(twice, ExpandedBatch(np.repeat(row, 2 * copies, 0), 0))
            assert once.dual == twice.dual == (copies == 1)
            np.testing.assert_array_equal(router_gram_ref(twice),
                                          2 * router_gram_ref(once))
            np.testing.assert_array_equal(twice.proto, 2 * once.proto)

    def test_empty_batch_is_a_no_op(self):
        state = new_router_state(3, 1.0)
        accumulate(state, ExpandedBatch(np.zeros((0, 3)), 0))
        assert state.samples_seen == 0
        np.testing.assert_array_equal(state.gram, np.zeros((3, 3)))

    def test_batch_split_invariance(self):
        """Accumulating one batch or the same rows row-by-row is identical."""
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((10, 4))
        whole = new_router_state(4, 1.0)
        accumulate(whole, ExpandedBatch(phi, 0))
        parts = new_router_state(4, 1.0)
        for row in phi:
            accumulate(parts, ExpandedBatch(row[None, :], 0))
        np.testing.assert_allclose(parts.gram, whole.gram, atol=1e-12)
        np.testing.assert_allclose(parts.proto, whole.proto, atol=1e-12)

    def test_gram_stays_symmetric(self):
        """The G its lower triangle stands for is the exact running sum of
        Phi^T Phi, and nothing is written above the diagonal."""
        rng = np.random.default_rng(1)
        state = new_router_state(6, 1.0)
        running = np.zeros((6, 6))
        for _ in range(50):
            phi = rng.standard_normal((7, 6))
            running += phi.T @ phi
            accumulate(state, ExpandedBatch(phi, 0))
        assert not np.triu(state.gram, 1).any()
        np.testing.assert_array_equal(router_gram_ref(state), running)

    def test_lower_triangle_is_bit_exact_at_a_blocked_size(self):
        """At a width where BLAS blocks the update, the stored lower triangle
        still equals the numpy running sum bit for bit.  The first batch is
        wider than M, so the state is primal from the start."""
        rng = np.random.default_rng(5)
        M = 576
        state = new_router_state(M, 1.0)
        running = np.zeros((M, M))
        for rows in (M + 64, 64, 64, 64):
            phi = rng.standard_normal((rows, M))
            running += phi.T @ phi
            accumulate(state, ExpandedBatch(phi, 0))
        np.testing.assert_array_equal(np.tril(state.gram), np.tril(running))

    def test_gram_that_is_not_f_contiguous_is_refused(self):
        """dsyrk would update a copy of a non-F-contiguous G and drop the
        batch; accumulate must refuse instead, leaving the state as it was.
        The batch is wider than M, so it goes to G."""
        state = new_router_state(4, 1.0)
        state.gram = np.ascontiguousarray(state.gram)
        with pytest.raises(ShapeError):
            accumulate(state, ExpandedBatch(np.ones((5, 4)), 0))
        assert state.samples_seen == 0
        np.testing.assert_array_equal(state.proto, np.zeros((4, 1)))

    def test_width_mismatch_raises(self):
        state = new_router_state(3, 1.0)
        with pytest.raises(ShapeError):
            accumulate(state, ExpandedBatch(np.zeros((2, 4)), 0))

    def test_unregistered_expert_raises(self):
        state = new_router_state(3, 1.0, num_experts=2)
        with pytest.raises(ValueError):
            accumulate(state, ExpandedBatch(np.zeros((1, 3)), 2))
        with pytest.raises(ValueError):
            accumulate(state, ExpandedBatch(np.zeros((1, 3)), None))

    def test_non_finite_rows_raise(self):
        state = new_router_state(3, 1.0)
        with pytest.raises(NumericalError):
            accumulate(state, ExpandedBatch(np.array([[1.0, np.nan, 0.0]]), 0))


class TestSolve:
    """The cached solve is the batch ridge solution of the streamed stats."""

    def test_zero_statistics_give_zero_weights(self):
        state = new_router_state(4, 2.0, num_experts=3)
        np.testing.assert_array_equal(solve(state), np.zeros((3, 4)))

    def test_two_by_two_solve_by_hand(self):
        """One sample [1,0] to the only expert with lam=1: G+I = diag(2,1),
        Q = [1,0], so U = [1/2, 0]."""
        state = new_router_state(2, 1.0, num_experts=1)
        accumulate(state, ExpandedBatch(np.array([[1.0, 0.0]]), 0))
        np.testing.assert_allclose(solve(state), [[0.5, 0.0]], atol=1e-15)

    def test_matches_batch_ridge_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            M, N, T = 8, 20, 3
            lam = float(rng.choice([0.1, 1.0, 10.0]))
            state, phi, labels = _stream_instance(rng, M, N, T, lam)
            expected = batch_ridge(phi, one_hot(labels, T), lam)
            np.testing.assert_allclose(solve(state), expected,
                                       rtol=1e-10, atol=1e-12)

    def test_solve_is_cached_until_next_update(self):
        rng = np.random.default_rng(2)
        state, _, _ = _stream_instance(rng, 4, 12, 2, 1.0)
        first = solve(state)
        assert solve(state) is first
        accumulate(state, ExpandedBatch(rng.standard_normal((1, 4)), 0))
        assert state.solved is None

    def test_scaling_counts_scales_weights_linearly(self):
        """Doubling every sample doubles Q and G; U is not scale-invariant
        but routing order on duplicated data is preserved."""
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((30, 5))
        labels = rng.integers(2, size=30)
        single = new_router_state(5, 1.0, num_experts=2)
        double = new_router_state(5, 1.0, num_experts=2)
        for e in range(2):
            rows = phi[labels == e]
            accumulate(single, ExpandedBatch(rows, e))
            accumulate(double, ExpandedBatch(np.vstack([rows, rows]), e))
        expected = batch_ridge(np.vstack([phi, phi]),
                               one_hot(np.concatenate([labels, labels]), 2),
                               1.0)
        np.testing.assert_allclose(solve(double), expected, atol=1e-10)

    def test_jitter_rescues_near_singular_gram(self):
        """A rank-one Gram with a tiny ridge fails the first factorization;
        the retry must start again from the matrix (not from the buffer the
        failed attempt left half overwritten) and solve G + (lam + jitter) I.
        Primal (17 rows of M=16); dual, with K factored whole (8 rows) and
        with 7 rows appended to a factored one, whose new block fails and
        sends the solve to a rebuild."""
        M, lam = 16, 1e-12
        # rows whose rounded kernel leaves the appended block nonzero (for
        # some rows, all-ones among them, it cancels to lam * I and factors)
        row = np.arange(1.0, M + 1)[None, :] * 1e8
        for batches in ([17], [8], [1, 7]):
            state = new_router_state(M, lam, num_experts=1)
            for rows in batches:
                accumulate(state, ExpandedBatch(np.repeat(row, rows, 0), 0))
                weights = solve(state)
            assert state.dual == (batches != [17])
            assert state.jitter_used > 0
            # the reference solves in the same form: the other one is
            # conditioned differently
            phi, ridge = np.repeat(row, sum(batches), 0), lam + state.jitter_used
            if state.dual:
                kernel = phi @ phi.T + ridge * np.eye(len(phi))
                expected = (phi.T @ cho_solve(cho_factor(kernel, lower=True),
                                              np.ones((len(phi), 1)))).T
            else:
                shifted = router_gram_ref(state) + ridge * np.eye(M)
                expected = cho_solve(cho_factor(shifted, lower=True),
                                     state.proto).T
            np.testing.assert_allclose(weights, expected, rtol=1e-9)

    def test_a_capacitance_that_does_not_factor_refactors_g(self,
                                                             monkeypatch):
        """The near-singular primal case above with a held factor: when the
        capacitance factor of the rows kept since fails (forced here), the
        solve refactors G through the same jitter escalation, drops the
        kept rows, and solves G + (lam + jitter) I."""
        M, lam = 16, 1e-12
        row = np.arange(1.0, M + 1)[None, :] * 1e8
        state = new_router_state(M, lam, num_experts=1)
        accumulate(state, ExpandedBatch(np.repeat(row, 17, 0), 0))
        solve(state)
        assert state.factor_diag is not None and state.jitter_used > 0
        accumulate(state, ExpandedBatch(np.repeat(row, 2, 0), 0))
        assert state.kept == 2
        failed = []

        def failing(cols, region, k, shift, jitter):
            failed.append(shift)
            return None

        monkeypatch.setattr(analytic_router, "_grow", failing)
        weights = solve(state)
        assert failed == [1.0]  # the capacitance's shift, tried once
        assert state.kept == state.factored == 0
        assert state.factor_diag is not None and state.jitter_used > 0
        shifted = router_gram_ref(state) + (lam + state.jitter_used) * np.eye(M)
        expected = cho_solve(cho_factor(shifted, lower=True), state.proto).T
        np.testing.assert_allclose(weights, expected, rtol=1e-9)

    def test_gram_failing_every_jitter_raises(self):
        """Primal: a G that is not PSD.  Dual: a negative ridge, as no rows
        make K indefinite."""
        state = new_router_state(4, 1.0, num_experts=1)
        accumulate(state, ExpandedBatch(np.ones((5, 4)), 0))
        state.gram = -np.eye(4, order="F")
        with pytest.raises(NumericalError):
            solve(state)
        assert state.solved is None
        state = new_router_state(4, 1.0, num_experts=1)
        accumulate(state, ExpandedBatch(np.eye(1, 4), 0))
        state.lam = -1e3
        with pytest.raises(NumericalError):
            solve(state)
        assert state.solved is None


class TestTwoForms:
    """The dual form below M rows, its grown factor and the fold into G."""

    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(1, 40), T=st.integers(1, 4),
           lam=st.sampled_from([0.1, 1.0, 10.0]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_solves_match_batch_ridge_through_the_fold(self, M, T, lam, seed,
                                                       data):
        """Random batches with solves at random points, always including the
        last batch before the fold and the end, match the batch ridge
        solution to 1e-9 relative in either form."""
        sizes = data.draw(st.lists(st.integers(1, 16), min_size=1,
                                   max_size=12), label="batch sizes")
        if sum(sizes) <= M:
            sizes.append(M + 1 - sum(sizes))
        solve_at = data.draw(st.lists(st.booleans(), min_size=len(sizes),
                                      max_size=len(sizes)), label="solves")
        rng = np.random.default_rng(seed)
        state = new_router_state(M, lam, num_experts=T)
        phi, labels = np.zeros((0, M)), np.zeros(0, dtype=int)
        for i, size in enumerate(sizes):
            rows, expert = rng.standard_normal((size, M)), int(rng.integers(T))
            accumulate(state, ExpandedBatch(rows, expert))
            phi = np.vstack([phi, rows])
            labels = np.concatenate([labels, np.full(size, expert)])
            folds_next = i + 1 < len(sizes) and state.dual and (
                len(phi) + sizes[i + 1] > M)
            if solve_at[i] or folds_next or i + 1 == len(sizes):
                assert state.dual == (len(phi) <= M)
                ref = batch_ridge(phi, one_hot(labels, T), lam)
                err = np.abs(solve(state) - ref).max() / np.abs(ref).max()
                assert err <= 1e-9

    def test_memory_stays_within_two_m_by_m_arrays(self):
        """A stream of M rows with a solve after every batch peaks below the
        dual form's two M x M arrays plus O(M*B); the fold allocates at most
        one M x M array (G), and only once the dual factor is gone; no solve
        after the first allocates O(M^2): neither the dual ones, nor the
        primal factorizations, nor the Woodbury solves between them, which
        run past the kept rows' cap of 0.618*M."""
        M, B = 256, 16
        mm, small = M * M * 8, 16 * M * B * 8
        rng = np.random.default_rng(11)
        primal = kept_cap(M) // B + 3  # past the cap, factored again, kept
        batches = [rng.standard_normal((B, M))
                   for _ in range(M // B + primal)]
        solve_peaks = []
        tracemalloc.start()
        try:
            state = new_router_state(M, 1.0, num_experts=2)
            for i, phi in enumerate(batches):
                if i == M // B:  # the batch that folds
                    assert state.dual and state.samples_seen == M
                    stream_peak = tracemalloc.get_traced_memory()[1]
                    before = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    accumulate(state, ExpandedBatch(phi, i % 2))
                    fold_high = tracemalloc.get_traced_memory()[1]
                    fold_peak = fold_high - before
                else:
                    accumulate(state, ExpandedBatch(phi, i % 2))
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                solve(state)
                solve_peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert not state.dual and 0 < state.kept < kept_cap(M)
        assert stream_peak < 2 * mm + small
        assert fold_peak < mm + small and fold_high < 2 * mm + small
        assert solve_peaks[0] >= mm  # the first solve allocates factor_buf
        assert max(solve_peaks[1:]) < small


class TestHeldFactor:
    """Primal solves add the rows kept since the last factorization by the
    Woodbury identity, and factor G again only when they must."""

    @pytest.mark.parametrize("every", [1, 3, None])
    def test_solves_match_batch_ridge_past_the_cap(self, every):
        """Solves after every batch, every third and only at the end, over
        batches narrower and wider than M, across the fold and past the
        kept rows' cap, match the batch ridge solution to 1e-9 relative."""
        M, T, lam = 24, 3, 1.0
        sizes = [7, 9, 30, 2, 5, 5, 4, 6, 5, 5, 5, 3, 40, 3, 6, 6, 6, 6, 6]
        rng = np.random.default_rng(12)
        state = new_router_state(M, lam, num_experts=T)
        phi, labels, most_kept = np.zeros((0, M)), np.zeros(0, int), 0
        for i, size in enumerate(sizes):
            rows, expert = rng.standard_normal((size, M)), int(rng.integers(T))
            accumulate(state, ExpandedBatch(rows, expert))
            phi = np.vstack([phi, rows])
            labels = np.concatenate([labels, np.full(size, expert)])
            if (i + 1) % (every or len(sizes)) == 0 or i + 1 == len(sizes):
                ref = batch_ridge(phi, one_hot(labels, T), lam)
                err = np.abs(solve(state) - ref).max() / np.abs(ref).max()
                assert err <= 1e-9
                most_kept = max(most_kept, state.factored)
        assert sum(sizes[3:12]) > kept_cap(M)  # rows enough to pass the cap
        assert most_kept > 0 if every else most_kept == 0

    def test_one_and_a_half_m_rows_factor_g_at_most_twice(self, monkeypatch):
        """1.5*M rows solved after every batch: past the fold, G is factored
        once, and every later solve is a Woodbury one."""
        M, B = 256, 16
        refactors = []
        refactor = analytic_router._refactor
        monkeypatch.setattr(analytic_router, "_refactor",
                            lambda state: refactors.append(1) or
                            refactor(state))
        rng = np.random.default_rng(13)
        state = new_router_state(M, 1.0, num_experts=2)
        for i in range(3 * M // (2 * B)):
            accumulate(state, ExpandedBatch(rng.standard_normal((B, M)),
                                            i % 2))
            solve(state)
        assert not state.dual and state.kept == state.factored == M // 2 - B
        assert 1 <= len(refactors) <= 2

    def test_held_factor_and_kept_rows_resume_bit_exactly(self):
        """A checkpoint taken with a held factor, rows it has whitened and
        rows it has not: the loaded state writes the same arrays, holds the
        same G, factor and kept rows, and its next solves equal the
        uninterrupted run's bit for bit."""
        M = 32
        rng = np.random.default_rng(14)
        state = new_router_state(M, 1.0, num_experts=2)
        for size, solves in ((40, True), (6, True), (5, False)):
            accumulate(state, ExpandedBatch(rng.standard_normal((size, M)),
                                            size % 2))
            if solves:
                solve(state)
        assert (state.kept, state.factored) == (11, 6)
        buf = io.BytesIO()
        np.savez(buf, **state.state())
        buf.seek(0)
        with np.load(buf) as stored:
            snap = dict(stored.items())
        assert snap["rows"].shape == (11, M) and snap["factor"].shape == (6, 6)
        assert snap["factor_diag"].shape == (M,)
        resumed = new_router_state(M, 1.0, num_experts=2)
        resumed.load(snap)
        for key, value in resumed.state().items():
            np.testing.assert_array_equal(value, snap[key])
        assert resumed.gram.tobytes("A") == state.gram.tobytes("A")
        for size in (0, 3, 9):
            rows = rng.standard_normal((size, M))
            for each in (state, resumed):
                accumulate(each, ExpandedBatch(rows, 1))
            assert solve(resumed).tobytes() == solve(state).tobytes()
        assert resumed.gram.tobytes("A") == state.gram.tobytes("A")


class TestRoute:
    def test_requires_solved_state(self):
        state = new_router_state(8, 1.0)
        accumulate(state, ExpandedBatch(np.ones((1, 8)), 0))
        with pytest.raises(NotSolvedError):
            route(np.ones((1, 8)), state)

    def test_tie_breaks_to_lowest_id(self):
        state = new_router_state(2, 1.0, num_experts=3)
        # U maps phi to scores [0.2, 0.9, 0.9]: experts 1 and 2 tie.
        state.solved = np.array([[0.2, 0.0], [0.9, 0.0], [0.9, 0.0]])
        scores, picks = route(np.array([[1.0, 0.0]]), state)
        np.testing.assert_allclose(scores, [[0.2, 0.9, 0.9]])
        assert picks[0] == 1

    def test_single_expert_always_selected(self):
        rng = np.random.default_rng(4)
        exp = RandomExpansion(3, 8, seed=1)
        state = new_router_state(8, 1.0, num_experts=1)
        accumulate(state, ExpandedBatch(rng.standard_normal((10, 8)), 0))
        solve(state)
        _, picks = route(exp(rng.standard_normal((6, 3))), state)
        np.testing.assert_array_equal(picks, np.zeros(6, dtype=np.int64))

    def test_width_mismatch_raises(self):
        state = new_router_state(8, 1.0, num_experts=2)
        solve(state)
        with pytest.raises(ShapeError):
            route(np.ones((1, 9)), state)


class TestGrow:
    def test_grow_pads_a_zero_column(self):
        state = new_router_state(3, 1.0, num_experts=1)
        accumulate(state, ExpandedBatch(np.array([[1.0, 2.0, 3.0]]), 0))
        grow(state, 2)
        assert state.num_experts == 2
        np.testing.assert_array_equal(state.proto[:, 1], np.zeros(3))

    def test_new_expert_scores_zero_until_it_sees_data(self):
        state = new_router_state(3, 1.0, num_experts=1)
        accumulate(state, ExpandedBatch(np.array([[1.0, 2.0, 3.0]]), 0))
        grow(state, 2)
        weights = solve(state)
        np.testing.assert_array_equal(weights[1], np.zeros(3))

    def test_grow_mid_stream_matches_batch_ridge_at_full_width(self):
        rng = np.random.default_rng(8)
        M, lam = 6, 1.0
        state = new_router_state(M, lam, num_experts=1)
        phi1 = rng.standard_normal((15, M))
        accumulate(state, ExpandedBatch(phi1, 0))
        grow(state, 3)
        phi2 = rng.standard_normal((9, M))
        phi3 = rng.standard_normal((4, M))
        accumulate(state, ExpandedBatch(phi2, 1))
        accumulate(state, ExpandedBatch(phi3, 2))
        phi = np.vstack([phi1, phi2, phi3])
        labels = np.concatenate([np.zeros(15), np.ones(9), np.full(4, 2)])
        expected = batch_ridge(phi, one_hot(labels, 3), lam)
        np.testing.assert_allclose(solve(state), expected, atol=1e-10)

    def test_shrinking_raises(self):
        state = new_router_state(3, 1.0, num_experts=2)
        with pytest.raises(ValueError):
            grow(state, 2)


class TestSnapshotRestore:
    def test_round_trip_preserves_solution(self):
        """Dual (4 rows of M=5: the rows, their experts and the factor,
        grown by the last row) and primal (19 rows: G as held, its lower
        triangle in Fortran order and L^T above it, L's diagonal, the row
        kept since L was taken and its capacitance factor)."""
        rng = np.random.default_rng(9)
        for N in (4, 19):
            state, _, _ = _stream_instance(rng, 5, N - 1, 2, 1.0)
            solve(state)
            accumulate(state, ExpandedBatch(rng.standard_normal((1, 5)), 1))
            solve(state)
            snap = state.state()
            if state.dual:
                assert snap["rows"].shape == (N, 5)
                assert snap["factor"].shape == (N, N)
                np.testing.assert_array_equal(snap["factor"],
                                              np.tril(snap["factor"]))
            else:  # G as held, with L^T above it and the row kept since
                assert snap["gram"] is state.gram
                assert snap["factor_diag"].shape == (5,)
                assert snap["rows"].shape == (1, 5)
                assert snap["factor"].shape == (1, 1)
            copy = new_router_state(5, 1.0, num_experts=2)
            copy.load(snap)
            assert copy.gram.flags.f_contiguous
            assert copy.gram.dtype == np.float64
            for key, value in copy.state().items():  # factor included
                np.testing.assert_array_equal(value, snap[key])
            np.testing.assert_array_equal(router_gram_ref(copy),
                                          router_gram_ref(state))
            np.testing.assert_array_equal(solve(copy), solve(state))

    def test_load_drops_a_stale_solution(self):
        rng = np.random.default_rng(9)
        for N in (4, 18):
            state, _, _ = _stream_instance(rng, 5, N, 2, 1.0)
            copy = new_router_state(5, 1.0, num_experts=2)
            solve(copy)
            copy.load(state.state())
            assert copy.solved is None
            np.testing.assert_array_equal(solve(copy), solve(state))

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_nothing_is_written_above_the_diagonal_of_g(self, M, seed, data):
        """Random batches across the fold, a round trip through an npz file,
        then more batches: from the fold on, G's strict upper triangle is
        exactly zero, in memory and in what ``state()`` writes, and the
        resumed state matches the uninterrupted one bit for bit."""
        sizes = st.lists(st.integers(1, 12), min_size=1, max_size=8)
        before = data.draw(sizes, label="batches before the checkpoint")
        before.append(M + 1)  # the fold happens by the checkpoint at latest
        after = data.draw(sizes, label="batches after the checkpoint")
        rng = np.random.default_rng(seed)
        state = new_router_state(M, 1.0, num_experts=2)

        def feed(states, size):
            rows, e = rng.standard_normal((size, M)), int(rng.integers(2))
            for each in states:
                accumulate(each, ExpandedBatch(rows, e))
                assert each.dual or not np.triu(each.gram, 1).any()

        for size in before:
            feed([state], size)
        buf = io.BytesIO()
        np.savez(buf, **state.state())
        buf.seek(0)
        with np.load(buf) as stored:
            assert not np.triu(stored["gram"], 1).any()
            snap = dict(stored.items())
        resumed = new_router_state(M, 1.0, num_experts=2)
        resumed.load(snap)
        for size in after:
            feed([state, resumed], size)
        assert resumed.gram.tobytes("A") == state.gram.tobytes("A")
        np.testing.assert_array_equal(solve(resumed), solve(state))

    def test_load_refuses_a_nonzero_entry_above_the_diagonal(self):
        """Even one, in G's last column: ``load`` scans every column."""
        rng = np.random.default_rng(9)
        state, _, _ = _stream_instance(rng, 5, 18, 2, 1.0)
        snap = state.state()
        snap["gram"] = snap["gram"].copy(order="F")
        snap["gram"][3, 4] = 1e-300
        with pytest.raises(ShapeError, match="gram"):
            new_router_state(5, 1.0, num_experts=2).load(snap)

    @pytest.mark.parametrize("edit, match", [
        (lambda snap: snap.update(factor_diag=snap["factor_diag"][:3]),
         r"factor_diag has shape \(3,\), not \(0,\) or \(5,\)"),
        (lambda snap: snap["factor_diag"].__setitem__(2, 0.0),
         "factor_diag has an entry that is not positive and finite"),
        (lambda snap: snap["factor_diag"].__setitem__(4, np.inf),
         "factor_diag has an entry that is not positive and finite"),
        (lambda snap: snap.update(rows=np.zeros((4, 5))),
         "rows holds 4 kept rows, more than the 3 room"),
        (lambda snap: snap.update(factor_diag=np.zeros(0)),
         "gram has a nonzero entry above its diagonal"),
    ])
    def test_load_refuses_a_held_factor_that_does_not_fit(self, edit, match):
        """L's diagonal of another length or with an entry that is not
        positive and finite, more kept rows than kept_cap(5) = 3, or L^T
        above G's diagonal with no diagonal to go with it."""
        rng = np.random.default_rng(9)
        state, _, _ = _stream_instance(rng, 5, 18, 2, 1.0)
        solve(state)
        accumulate(state, ExpandedBatch(rng.standard_normal((1, 5)), 1))
        snap = {key: np.array(value) for key, value in state.state().items()}
        edit(snap)
        with pytest.raises(ShapeError, match=match):
            new_router_state(5, 1.0, num_experts=2).load(snap)

    @pytest.mark.parametrize("key, shape", [("gram", (4, 4)),
                                            ("proto", (5, 3)),
                                            ("proto", (4, 2))])
    def test_load_refuses_another_width_or_expert_count(self, key, shape):
        rng = np.random.default_rng(9)
        state, _, _ = _stream_instance(rng, 5, 18, 2, 1.0)
        snap = state.state()
        snap[key] = np.zeros(shape)
        with pytest.raises(ShapeError):
            new_router_state(5, 1.0, num_experts=2).load(snap)


class TestConstruction:
    def test_invalid_sizes_raise(self):
        with pytest.raises(ShapeError):
            new_router_state(0, 1.0)
        with pytest.raises(ValueError):
            new_router_state(4, 0.0)
        with pytest.raises(ValueError):
            new_router_state(4, 1.0, num_experts=0)
