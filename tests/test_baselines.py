"""Routing baselines: streaming moments, reservoirs, kmeans, shallow net."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gclstream.baselines as baselines_mod
from gclstream.analytic_router import accumulate, new_router_state
from gclstream.baselines import (
    BASELINE_KINDS, TAG_KMEANS, KMeansRouter, NaiveBayesRouter,
    PrototypeRouter, ShallowRouter, baseline_finalize, baseline_fit_update,
    baseline_route, new_baseline, oracle_route, _nearest, _row_norms,
    _sq_dists,
)
from gclstream.errors import NotSolvedError, NumericalError, ShapeError
from gclstream.expansion import ExpandedBatch

from oracles import (
    lloyd_ref, shallow_update_kernel_ref, shallow_update_ref, two_pass_moments,
)


def _feed(router, rows, expert, chunk=3):
    rows = np.atleast_2d(rows)
    for start in range(0, len(rows), chunk):
        baseline_fit_update(
            router, ExpandedBatch(rows[start:start + chunk], expert))


class TestStreamingMoments:
    def test_prototype_mean_by_hand(self):
        router = PrototypeRouter(2, num_experts=1)
        _feed(router, np.array([[1.0, 0.0], [3.0, 0.0]]), 0)
        np.testing.assert_allclose(router.means[0], [2.0, 0.0])

    def test_population_variance_by_hand(self):
        router = NaiveBayesRouter(1, num_experts=1)
        _feed(router, np.array([[1.0], [3.0]]), 0)
        np.testing.assert_allclose(router.m2[0] / router.counts[0], [1.0])

    def test_chunked_updates_match_two_pass_statistics(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((57, 6)) * 3.0 + 1.0
        router = NaiveBayesRouter(6, num_experts=1)
        _feed(router, rows[:20], 0, chunk=1)
        _feed(router, rows[20:41], 0, chunk=7)
        _feed(router, rows[41:], 0, chunk=16)
        mean, var = two_pass_moments(rows)
        np.testing.assert_allclose(router.means[0], mean, atol=1e-10)
        np.testing.assert_allclose(router.m2[0] / router.counts[0], var,
                                   atol=1e-10)

    def test_experts_accumulate_independently(self):
        router = PrototypeRouter(2, num_experts=2)
        _feed(router, np.array([[1.0, 1.0]]), 0)
        _feed(router, np.array([[5.0, 5.0]]), 1)
        np.testing.assert_allclose(router.means[0], [1.0, 1.0])
        np.testing.assert_allclose(router.means[1], [5.0, 5.0])


class TestPrototypeRouting:
    def test_two_separated_clusters_route_cleanly(self):
        rng = np.random.default_rng(1)
        router = PrototypeRouter(2, num_experts=2)
        a = rng.standard_normal((40, 2)) * 1e-3 + np.array([4.0, 0.0])
        b = rng.standard_normal((40, 2)) * 1e-3 + np.array([-4.0, 0.0])
        _feed(router, a, 0)
        _feed(router, b, 1)
        picks = baseline_route(router, np.vstack([a[:5], b[:5]]))
        np.testing.assert_array_equal(picks, [0] * 5 + [1] * 5)

    def test_unfed_expert_is_never_selected(self):
        router = PrototypeRouter(2, num_experts=2)
        _feed(router, np.array([[1.0, 0.0]]), 0)
        picks = baseline_route(router, np.array([[0.0, 1.0]]))
        assert picks[0] == 0

    def test_cosine_ignores_magnitude_euclidean_does_not(self):
        """A probe aligned with a far-away prototype: cosine follows the
        direction, where the nearest mean would follow the distance."""
        router = PrototypeRouter(2, num_experts=2)
        _feed(router, np.array([[100.0, 0.0]]), 0)
        _feed(router, np.array([[0.0, 1.0]]), 1)
        probe = np.array([[3.0, 0.0]])
        assert baseline_route(router, probe)[0] == 0
        assert np.argmin(_sq_dists(probe, router.means)[0]) == 1


class TestNaiveBayes:
    def test_variance_aware_routing_beats_mean_distance(self):
        """A broad cluster explains a far point better than a pinpoint one
        even when the pinpoint mean is slightly closer."""
        router = NaiveBayesRouter(1, num_experts=2)
        _feed(router, np.array([[0.9], [1.1]]), 0)      # tight around 1
        _feed(router, np.array([[-4.0], [8.0]]), 1)     # broad around 2
        picks = baseline_route(router, np.array([[3.0]]))
        assert picks[0] == 1

    def test_smoothing_keeps_degenerate_variances_finite(self):
        router = NaiveBayesRouter(2, num_experts=1)
        _feed(router, np.array([[1.0, 2.0], [1.0, 2.0]]), 0)  # zero variance
        picks = baseline_route(router, np.array([[1.0, 2.0]]))
        assert picks[0] == 0

    @staticmethod
    def _fed(M, rng):
        """Four experts of width M, expert 1 with a count of zero."""
        router = NaiveBayesRouter(M, num_experts=4)
        for e in (0, 2, 3):
            router.update(e, np.maximum(rng.standard_normal((20, M)) + e, 0.0))
        return router

    @pytest.mark.parametrize("M, n", [
        (1024, 400),                                # 6 blocks of 64, then 16
        (1024, 130),
        (baselines_mod._DIST_BLOCK + 3, 3),         # one row per block
    ])
    def test_blocked_scores_equal_the_whole_pool_formula(self, M, n):
        rng = np.random.default_rng(11)
        router = self._fed(M, rng)
        phi = np.maximum(rng.standard_normal((n, M)), 0.0)
        full = np.full((n, 4), -np.inf)
        for e in (0, 2, 3):
            var = router.m2[e] / router.counts[e] + baselines_mod.NB_EPS
            diff = phi - router.means[e]
            full[:, e] = -0.5 * (np.log(2.0 * np.pi * var).sum()
                                 + (diff * diff / var).sum(axis=1))
        np.testing.assert_array_equal(router._scores(phi), full)
        np.testing.assert_array_equal(router.route(phi),
                                      np.argmax(full, axis=1))

    def test_route_holds_a_few_blocks_not_the_pool(self):
        """Scoring a 400 x 1024 holdout pool allocates a few blocks of
        _DIST_BLOCK floats, not pool x M temporaries (9.9 MB unblocked)."""
        rng = np.random.default_rng(12)
        router = self._fed(1024, rng)
        phi = rng.standard_normal((400, 1024))
        tracemalloc.start()
        try:
            router.route(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * baselines_mod._DIST_BLOCK * 8


class TestKmeans:
    def test_blocked_distances_equal_the_full_broadcast(self):
        """Enough centers that the rows go through several blocks; every
        distance must still be bit-identical to the one-shot broadcast."""
        rng = np.random.default_rng(3)
        x = np.maximum(rng.standard_normal((64, 1024)), 0.0)
        centers = rng.standard_normal((50, 1024))
        full = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(_sq_dists(x, centers), full)

    def test_route_before_finalize_raises(self):
        router = KMeansRouter(2, seed=0, num_experts=1)
        _feed(router, np.ones((4, 2)), 0)
        with pytest.raises(NotSolvedError):
            router.route(np.ones((1, 2)))

    def test_route_with_no_rows_raises(self):
        router = KMeansRouter(2, seed=0, num_experts=2)
        with pytest.raises(NotSolvedError):
            baseline_route(router, np.ones((1, 2)))

    def test_baseline_route_fits_lazily(self, monkeypatch):
        """The entry point finalizes first, and refits only after the
        reservoirs change."""
        rng = np.random.default_rng(7)
        lazy = KMeansRouter(2, seed=0, num_experts=2, K=3)
        eager = KMeansRouter(2, seed=0, num_experts=2, K=3)
        a = rng.standard_normal((30, 2)) + 3.0
        b = rng.standard_normal((30, 2)) - 3.0
        for router in (lazy, eager):
            _feed(router, a, 0)
            _feed(router, b, 1)
        baseline_finalize(eager)
        probe = rng.standard_normal((10, 2)) * 3.0
        np.testing.assert_array_equal(baseline_route(lazy, probe),
                                      eager.route(probe))
        np.testing.assert_array_equal(lazy.centroids, eager.centroids)
        calls = _count_distance_passes(monkeypatch)
        baseline_route(lazy, probe)
        assert calls == [len(probe)]

    def test_single_centroid_reduces_to_the_mean(self):
        router = KMeansRouter(2, seed=0, num_experts=1, K=1)
        rows = np.array([[1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
        _feed(router, rows, 0)
        baseline_finalize(router)
        np.testing.assert_allclose(router.centroids, [[3.0, 0.0]])

    def test_two_cluster_routing(self):
        rng = np.random.default_rng(2)
        router = KMeansRouter(2, seed=0, num_experts=2, K=3)
        a = rng.standard_normal((60, 2)) * 0.1 + np.array([4.0, 0.0])
        b = rng.standard_normal((60, 2)) * 0.1 + np.array([-4.0, 0.0])
        _feed(router, a, 0)
        _feed(router, b, 1)
        baseline_finalize(router)
        picks = baseline_route(router, np.vstack([a[:4], b[:4]]))
        np.testing.assert_array_equal(picks, [0] * 4 + [1] * 4)

    def test_reservoir_capacity_and_determinism(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((900, 2))
        routers = []
        for _ in range(2):
            router = KMeansRouter(2, seed=5, num_experts=1,
                                    reservoir_cap=64)
            _feed(router, rows, 0, chunk=17)
            routers.append(router)
        assert routers[0].reservoirs[0].shape == (64, 2)
        assert routers[0].seen[0] == 900
        np.testing.assert_array_equal(routers[0].reservoirs[0],
                                      routers[1].reservoirs[0])

    def test_reservoir_is_roughly_uniform_over_arrivals(self):
        """Late arrivals must not be over-represented: over many seeds the
        kept fraction from the first half is near one half."""
        rows = np.arange(200, dtype=np.float64)[:, None]
        early = 0
        for seed in range(40):
            router = KMeansRouter(1, seed=seed, num_experts=1,
                                    reservoir_cap=20)
            _feed(router, rows, 0, chunk=50)
            kept = router.reservoirs[0].ravel()  # 200 rows seen fill all 20
            early += (kept < 100).sum()
        fraction = early / (40 * 20)
        assert 0.35 < fraction < 0.65

    def test_fewer_rows_than_k_still_finalizes(self):
        router = KMeansRouter(2, seed=0, num_experts=1, K=10)
        _feed(router, np.array([[1.0, 0.0], [2.0, 0.0]]), 0)
        baseline_finalize(router)
        assert router.centroids.shape[0] == 2
        picks = baseline_route(router, np.array([[1.5, 0.0]]))
        assert picks[0] == 0


_ACTIVATIONS = {"relu": lambda z: np.maximum(z, 0.0),
                "identity": lambda z: z, "tanh": np.tanh}


@st.composite
def _rows_and_centres(draw):
    """Rows and centres built to land on or near argmin ties: rows that
    copy a centre or sit at the midpoint of two, duplicated centres, signed
    entries, and one magnitude anywhere from 1e-100 to 1e100."""
    M = draw(st.sampled_from([1, 7, 1024]))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    act = _ACTIVATIONS[draw(st.sampled_from(sorted(_ACTIVATIONS)))]
    scale = 10.0 ** draw(st.integers(-100, 100))
    centers = act(rng.standard_normal((k, M))) * scale
    for dst, src in draw(st.lists(st.tuples(st.integers(0, k - 1),
                                            st.integers(0, k - 1)),
                                  max_size=3)):
        centers[dst] = centers[src]
    rows = []
    for kind, a, b in draw(st.lists(
            st.tuples(st.sampled_from(["free", "centre", "midpoint"]),
                      st.integers(0, k - 1), st.integers(0, k - 1)),
            min_size=1, max_size=12)):
        if kind == "free":
            rows.append(act(rng.standard_normal(M)) * scale)
        elif kind == "centre":
            rows.append(centers[a].copy())
        else:
            rows.append((centers[a] + centers[b]) / 2.0)
    return np.array(rows), centers


class TestCertifiedAssignment:
    """``_nearest`` takes its answer from one GEMM only where a rounding-
    error margin proves it, so it must agree with the exact blocked
    distances bit for bit, ties to the lowest index included."""

    @settings(max_examples=300, deadline=None)
    @given(case=_rows_and_centres())
    def test_equals_the_exact_argmin(self, case):
        """With its row norms computed inside or passed in."""
        x, centers = case
        exact = np.argmin(_sq_dists(x, centers), axis=1)
        np.testing.assert_array_equal(_nearest(x, centers), exact)
        np.testing.assert_array_equal(
            _nearest(x, centers, _row_norms(x)), exact)

    def test_finalize_takes_each_reservoirs_norms_once(self, monkeypatch):
        """Lloyd's iterations reuse an expert's row norms: one
        ``_row_norms`` call per expert, however many assignments."""
        router = _separated_router(6)
        norms = _count_distance_passes(monkeypatch, "_row_norms")
        assignments = _count_distance_passes(monkeypatch)
        baseline_finalize(router)
        assert norms == [90, 90] and len(assignments) > 2  # full reservoirs

    def test_exact_tie_sends_only_the_tied_rows_to_the_exact_path(
            self, monkeypatch):
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
        x = np.array([[1.0, 0.0], [10.0, 9.0], [0.1, 0.0], [1.0, 0.0]])
        passed = []

        def recording(rows, c):
            passed.append(rows.copy())
            return _sq_dists(rows, c)

        monkeypatch.setattr(baselines_mod, "_sq_dists", recording)
        np.testing.assert_array_equal(_nearest(x, centers), [0, 2, 0, 0])
        assert len(passed) == 1
        np.testing.assert_array_equal(passed[0], x[[0, 3]])

    def test_separated_blobs_never_take_the_exact_path(self, monkeypatch):
        router = _separated_router(5)
        exact = _count_distance_passes(monkeypatch, "_sq_dists")
        baseline_route(router, router.reservoirs[1][:20])
        assert router.centroids is not None
        assert exact == []


def _lloyd_reference(router):
    """Centroids and owners from 25 full Lloyd iterations per expert, seeded
    as ``baseline_finalize`` seeds its initial centres."""
    centroids, owners = [], []
    for e in range(router.num_experts):
        rows = router.reservoirs[e][:min(router.seen[e], router.reservoir_cap)]
        if len(rows) == 0:
            continue
        k = min(router.K, len(rows))
        rng = np.random.default_rng(
            np.random.SeedSequence([router.seed, TAG_KMEANS, e]))
        init = rows[rng.choice(len(rows), size=k, replace=False)]
        centroids.append(lloyd_ref(rows, init))
        owners.extend([e] * k)
    return np.vstack(centroids), np.array(owners, dtype=np.int64)


def _separated_router(seed):
    """Two experts, each fed three tight, far-apart blobs in 8 dimensions."""
    rng = np.random.default_rng(seed)
    router = KMeansRouter(8, seed=seed, num_experts=2, K=3,
                            reservoir_cap=90)
    for e in range(2):
        blobs = rng.standard_normal((3, 8)) * 10.0
        rows = np.vstack([b + 0.1 * rng.standard_normal((40, 8))
                          for b in blobs])
        _feed(router, rng.permutation(rows), e, chunk=16)
    return router


def _count_distance_passes(monkeypatch, name="_nearest"):
    """Record the row count of every call to the module's ``name``: the
    assignment helper by default, its exact path ``_sq_dists`` or its row
    norms ``_row_norms``."""
    calls = []
    real = getattr(baselines_mod, name)

    def counting(x, *args):
        calls.append(len(x))
        return real(x, *args)

    monkeypatch.setattr(baselines_mod, name, counting)
    return calls


class TestLloydFixedPoint:
    """Stopping at the first repeated assignment must give the centroids
    of all 25 iterations bit for bit."""

    def _assert_matches_reference(self, router):
        centroids, owners = _lloyd_reference(router)
        baseline_finalize(router)
        np.testing.assert_array_equal(router.centroids, centroids)
        np.testing.assert_array_equal(router.centroid_owner, owners)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_separated_data_matches_full_iterations(self, seed):
        self._assert_matches_reference(_separated_router(seed))

    def test_empty_cluster_matches_full_iterations(self):
        """Three distinct points for six centres: at least three clusters
        stay empty and keep their initial centre."""
        points = np.array([[0.0, 0.0], [5.0, 1.0], [-3.0, 4.0]])
        rows = np.repeat(points, 10, axis=0)
        router = KMeansRouter(2, seed=3, num_experts=1, K=6)
        _feed(router, rows, 0)
        centroids, _ = _lloyd_reference(router)
        assert len(np.unique(centroids, axis=0)) == 3
        self._assert_matches_reference(router)

    def test_duplicate_rows_and_argmin_ties_match_full_iterations(self):
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        for seed in range(4):
            router = KMeansRouter(2, seed=seed, num_experts=1,
                                    K=4)
            _feed(router, rows, 0)
            self._assert_matches_reference(router)

    def test_more_centres_than_rows_matches_full_iterations(self):
        router = KMeansRouter(3, seed=0, num_experts=2, K=10)
        _feed(router, np.arange(12.0).reshape(4, 3), 0)
        _feed(router, -np.arange(6.0).reshape(2, 3), 1)
        self._assert_matches_reference(router)
        assert router.centroids.shape == (6, 3)

    def test_separated_data_stops_well_before_the_cap(self, monkeypatch):
        router = _separated_router(0)
        calls = _count_distance_passes(monkeypatch)
        baseline_finalize(router)
        assert 2 * 2 <= len(calls) <= 2 * 8

    def test_second_finalize_is_a_no_op(self, monkeypatch):
        router = _separated_router(1)
        baseline_finalize(router)
        centroids = router.centroids
        calls = _count_distance_passes(monkeypatch)
        baseline_finalize(router)
        assert router.centroids is centroids
        assert calls == []

    def test_fit_update_forces_a_refit(self, monkeypatch):
        router = _separated_router(2)
        baseline_finalize(router)
        centroids = router.centroids
        _feed(router, np.full((1, 8), 50.0), 0)
        calls = _count_distance_passes(monkeypatch)
        baseline_finalize(router)
        assert router.centroids is not centroids
        assert calls


# the kernel-form update rounds differently from the plain steps; the gap is
# bounded relative to the largest magnitude of the terms summed into an array
# (shallow_update_ref's scales), not to its value, which those terms can
# cancel down to far less than their rounding
SHALLOW_RTOL = 1e-12

# the arrays a ShallowRouter learns
SHALLOW_ARRAYS = ("W1", "b1", "W2", "b2")


def _assert_shallow_matches(router, kernel, plain, scales):
    for key, k_ref, p_ref, scale in zip(SHALLOW_ARRAYS, kernel, plain,
                                        scales):
        got = getattr(router, key)
        np.testing.assert_array_equal(got, k_ref, err_msg=key)
        bound = SHALLOW_RTOL * scale.max(initial=0.0)
        assert np.abs(got - p_ref).max(initial=0.0) <= bound, key


class TestTrainedShallow:
    def test_learns_two_separated_clusters(self):
        rng = np.random.default_rng(4)
        router = ShallowRouter(2, seed=1, num_experts=2,
                                hidden=32, lr=0.05, iters=2)
        a = rng.standard_normal((50, 2)) * 0.2 + np.array([3.0, 0.0])
        b = rng.standard_normal((50, 2)) * 0.2 + np.array([-3.0, 0.0])
        for i in range(50):
            _feed(router, a[i], 0, chunk=1)
            _feed(router, b[i], 1, chunk=1)
        picks = baseline_route(router, np.vstack([a[:6], b[:6]]))
        np.testing.assert_array_equal(picks, [0] * 6 + [1] * 6)

    def test_hidden_layer_init_is_seed_keyed(self):
        a = ShallowRouter(4, seed=1)
        b = ShallowRouter(4, seed=1)
        c = ShallowRouter(4, seed=2)
        np.testing.assert_array_equal(a.W1, b.W1)
        assert np.abs(a.W1 - c.W1).max() > 1e-6

    def test_gradient_workspace_keeps_the_plain_update(self):
        """The kernel-form update leaves W1, b1, W2 and b2 bit-equal to its
        reference with no array reused, and within SHALLOW_RTOL of the
        plain steps, across an expert registration and onto a router that
        copies the learnt arrays and allocates its own H x M workspace."""
        rng = np.random.default_rng(8)
        router = ShallowRouter(24, seed=3, num_experts=2, hidden=16,
                               lr=0.05, iters=3)
        ref = tuple(np.array(getattr(router, k)) for k in SHALLOW_ARRAYS)
        refs = (ref, ref, ref)  # kernel form, plain steps, their scales

        def step(r, refs, e):
            phi = np.maximum(rng.standard_normal((10, 24)) + e, 0.0)
            r.update(e, phi)
            kernel, plain, scales = refs
            kernel = shallow_update_kernel_ref(kernel, e, phi, r.lr, r.iters)
            plain, scales = shallow_update_ref(plain, e, phi, r.lr, r.iters,
                                               scales)
            _assert_shallow_matches(r, kernel, plain, scales)
            return kernel, plain, scales

        def grow(ref):
            return ref[:2] + (np.vstack([ref[2], np.zeros((1, 16))]),
                              np.append(ref[3], 0.0))

        for e in (0, 1, 0):
            refs = step(router, refs, e)
        buf = router.grad_buf
        assert buf.shape == router.W1.shape
        router.register_expert()
        refs = tuple(grow(ref) for ref in refs)
        for e in (2, 1):
            refs = step(router, refs, e)
        assert router.grad_buf is buf
        copy = ShallowRouter(24, seed=3, num_experts=3, hidden=16,
                             lr=0.05, iters=3)
        for key in SHALLOW_ARRAYS:
            setattr(copy, key, getattr(router, key).copy())
        for e in (0, 2):
            refs = step(copy, refs, e)

    @settings(max_examples=60, deadline=None)
    # b1 cancels to -1.66e-6 here, 3.3e-18 from the plain steps
    @example(B=64, iters=5, hidden=1, M=14, relu=True, seed=1)
    @given(B=st.sampled_from([1, 2, 7, 64]),
           iters=st.sampled_from([1, 2, 3, 5]),
           hidden=st.integers(1, 12), M=st.integers(1, 16),
           relu=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_kernel_form_matches_the_plain_steps(self, B, iters, hidden, M,
                                                 relu, seed):
        """Bit-equal to the kernel-form reference and within SHALLOW_RTOL of
        the plain steps over three batches, with and without ReLU zeros in
        the rows."""
        rng = np.random.default_rng(seed)
        router = ShallowRouter(M, seed=seed, num_experts=3, hidden=hidden,
                               lr=0.05, iters=iters)
        kernel = plain = scales = tuple(
            np.array(getattr(router, k)) for k in SHALLOW_ARRAYS)
        for e in (1, 0, 2):
            phi = rng.standard_normal((B, M)) + 0.5 * e
            if relu:
                phi = np.maximum(phi, 0.0)
            router.update(e, phi)
            kernel = shallow_update_kernel_ref(kernel, e, phi, router.lr,
                                               iters)
            plain, scales = shallow_update_ref(plain, e, phi, router.lr,
                                               iters, scales)
            _assert_shallow_matches(router, kernel, plain, scales)

    @pytest.mark.parametrize("key", ["W1", "W2"])
    def test_overflowing_weights_raise_and_leave_the_router(self, key):
        """Weights near the float64 maximum make the first step's gradient
        non-finite: the update raises NumericalError before any write."""
        rng = np.random.default_rng(2)
        router = ShallowRouter(6, seed=0, num_experts=2, hidden=5)
        if key == "W1":
            router.W1[:] = 1e308
        else:
            router.W1[:] = 1.0
            router.W2[:] = [[1e308], [-1e308]]
        phi = np.abs(rng.standard_normal((4, 6))) + 1.0
        before = {k: np.array(getattr(router, k)) for k in SHALLOW_ARRAYS}
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError):
            _feed(router, phi, 1, chunk=4)
        for k, want in before.items():
            np.testing.assert_array_equal(getattr(router, k), want)

    def test_overflowing_hidden_gradient_raises_before_w1_is_written(self):
        """A finite step whose hidden-weight gradient overflows (caught by
        the check after the gradient GEMM): NumericalError, and W1 is left
        as it was."""
        router = ShallowRouter(3, seed=0, num_experts=2, hidden=4, lr=0.5,
                               iters=1)
        router.W1 *= 1e-20
        router.W2[:] = [[1e300], [-1e300]]
        phi = np.full((8, 3), 1e10)
        W1 = router.W1.copy()
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            _feed(router, phi, 1, chunk=8)
        np.testing.assert_array_equal(router.W1, W1)


class TestOracle:
    def test_lowest_id_wins_on_shared_classes(self):
        history = [{0, 1}, {1, 2}, {3}]
        assert oracle_route(1, history) == 0
        assert oracle_route(2, history) == 1
        assert oracle_route(3, history) == 2

    def test_untrained_label_returns_none(self):
        assert oracle_route(9, [{0}, {1}]) is None


class TestLifecycle:
    def test_register_expert_grows_every_kind(self):
        for kind in BASELINE_KINDS:
            router = new_baseline(kind, 3, seed=0)
            router.register_expert()
            assert router.num_experts == 2
            _feed(router, np.ones((2, 3)), 1)

    def test_each_kind_holds_only_its_own_arrays(self):
        held = {"prototype": {"counts", "means"},
                "naive_bayes": {"counts", "means", "m2"},
                "kmeans": {"reservoirs", "seen"},
                "trained_shallow": set(SHALLOW_ARRAYS)}
        for kind in BASELINE_KINDS:
            router = new_baseline(kind, 3, seed=0, num_experts=2)
            arrays = {k for k, v in vars(router).items()
                      if isinstance(v, (np.ndarray, list))}
            assert arrays == held[kind], kind

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            new_baseline("centroid", 3, seed=0)

    def test_empty_batch_of_an_unregistered_expert_is_refused(self):
        """The router and every baseline check a batch the same way, so an
        empty batch is refused for its expert id before it is skipped."""
        empty = ExpandedBatch(np.zeros((0, 3)), 1)
        with pytest.raises(ValueError, match="expert id 1 is not registered"):
            accumulate(new_router_state(3, 1.0), empty)
        for kind in BASELINE_KINDS:
            with pytest.raises(ValueError,
                               match="expert id 1 is not registered"):
                baseline_fit_update(new_baseline(kind, 3, seed=0), empty)

    def test_width_mismatch_raises(self):
        router = PrototypeRouter(3, num_experts=1)
        with pytest.raises(ShapeError):
            _feed(router, np.ones((2, 4)), 0)
