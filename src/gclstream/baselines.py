"""Alternative routers over the same expanded features.

Every baseline consumes exactly the ExpandedBatch stream the analytic router
sees and maintains bounded per-expert statistics online: a running mean
(prototype similarity), running mean+variance via Welford's parallel update
(naive Bayes with diagonal Gaussians), a uniform reservoir of rows clustered
by Lloyd's algorithm at finalize (k-means), or a two-layer scorer trained by
gradient descent with experts as labels (trained_shallow).  None of them
touches the analytic router's statistics or the experts' parameters.

Lloyd's iterations stop at their fixed point: once an assignment repeats the
previous one, every later iteration would average the same members in the
same order (an empty cluster keeps its centre), so the centres are already
bit-identical to those of the full 25 iterations, which stay the cap for a
reservoir that never settles.  Finalize is a no-op until the reservoirs
change, as ``analytic_router.solve`` is until the Gram does.

The oracle router is evaluation-only: given the true label it returns the
lowest-id expert whose training data contained that label, or None if no
expert ever trained it (callers fall back to the analytic selection and count
the fallback).
"""

from __future__ import annotations

import numpy as np

from .errors import NotSolvedError, NumericalError, ShapeError
from .expansion import ExpandedBatch, RandomExpansion

TAG_RESERVOIR = 21
TAG_KMEANS = 22
TAG_SHALLOW = 23

BASELINE_KINDS = ("prototype", "naive_bayes", "kmeans", "trained_shallow")

NB_EPS = 1e-6  # variance smoothing against rectified-zero coordinates

# Element budget of one block of the rows x centers x M difference tensor in
# _sq_dists: 512 KB of float64, so each block's subtract, square and sum
# passes stay in a 4 MB L2.  Timed on a 2-core Xeon at M=1024, 512 rows x 10
# centers: 23.9 ms per call at 1 << 20, 11.7 ms at 1 << 16, 12.8 ms at
# 1 << 15, 15.7 ms at 1 << 14.  The size is exact at any value: every entry
# is one contiguous reduction over M, whichever block holds it.
_DIST_BLOCK = 1 << 16

LLOYD_MAX_ITERS = 25


class BaselineRouter:
    """Online sufficient statistics for one baseline routing algorithm."""

    def __init__(self, kind: str, M: int, seed: int, num_experts: int = 1,
                 metric: str = "cosine", K: int = 10, hidden: int = 512,
                 reservoir_cap: int = 512, lr: float = 0.005, iters: int = 3):
        if kind not in BASELINE_KINDS:
            raise ValueError(
                f"unknown baseline kind {kind!r}; choose from {BASELINE_KINDS}")
        if metric not in ("cosine", "euclidean"):
            raise ValueError(f"unknown prototype metric {metric!r}")
        self.kind = kind
        self.M = M
        self.seed = seed
        self.metric = metric
        self.K = K
        self.hidden = hidden
        self.reservoir_cap = reservoir_cap
        self.lr = lr
        self.iters = iters
        self.num_experts = 0
        # prototype / naive bayes
        self.counts = np.zeros(0, dtype=np.int64)
        self.means = np.zeros((0, M))
        self.m2 = np.zeros((0, M))
        # kmeans
        self.reservoirs: list[np.ndarray] = []
        self.fill: list[int] = []
        self.seen: list[int] = []
        self.centroids: np.ndarray | None = None
        self.centroid_owner: np.ndarray | None = None
        # trained_shallow
        if kind == "trained_shallow":
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, TAG_SHALLOW]))
            self.W1 = rng.standard_normal((hidden, M)) / np.sqrt(M)
            self.b1 = np.zeros(hidden)
            self.W2 = np.zeros((0, hidden))
            self.b2 = np.zeros(0)
        for _ in range(num_experts):
            self.register_expert()

    def register_expert(self) -> int:
        e = self.num_experts
        self.num_experts += 1
        self.counts = np.append(self.counts, 0)
        self.means = np.vstack([self.means, np.zeros((1, self.M))])
        self.m2 = np.vstack([self.m2, np.zeros((1, self.M))])
        self.reservoirs.append(np.zeros((self.reservoir_cap, self.M)))
        self.fill.append(0)
        self.seen.append(0)
        self.centroids = None
        self.centroid_owner = None
        if self.kind == "trained_shallow":
            self.W2 = np.vstack([self.W2, np.zeros((1, self.hidden))])
            self.b2 = np.append(self.b2, 0.0)
        return e


def baseline_fit_update(router: BaselineRouter,
                        batch: ExpandedBatch) -> BaselineRouter:
    """Fold one expanded batch into the baseline's statistics."""
    phi = np.asarray(batch.values, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[1] != router.M:
        raise ShapeError(
            f"batch width {phi.shape[-1]} does not match router width "
            f"{router.M}")
    e = batch.expert_id
    if e is None or not 0 <= e < router.num_experts:
        raise ValueError(f"expert id {e!r} is not registered")
    if phi.shape[0] == 0:
        return router
    if not np.isfinite(phi).all():
        raise NumericalError("non-finite values in expanded batch")

    if router.kind in ("prototype", "naive_bayes"):
        _welford(router, e, phi)
    elif router.kind == "kmeans":
        _reservoir(router, e, phi)
    else:
        _shallow_steps(router, e, phi)
    return router


def _welford(router, e, phi):
    """Chan's parallel mean/M2 update; population variance = m2/count."""
    nb = phi.shape[0]
    mean_b = phi.mean(axis=0)
    m2_b = ((phi - mean_b) ** 2).sum(axis=0)
    n = router.counts[e]
    total = n + nb
    delta = mean_b - router.means[e]
    router.means[e] += delta * (nb / total)
    router.m2[e] += m2_b + delta * delta * (n * nb / total)
    router.counts[e] = total


def _reservoir(router, e, phi):
    """Uniform reservoir; acceptance keyed by (seed, expert, arrival count)."""
    cap = router.reservoir_cap
    for row in phi:
        router.seen[e] += 1
        n = router.seen[e]
        if router.fill[e] < cap:
            router.reservoirs[e][router.fill[e]] = row
            router.fill[e] += 1
        else:
            rng = np.random.default_rng(np.random.SeedSequence(
                [router.seed, TAG_RESERVOIR, e, n]))
            j = int(rng.integers(n))
            if j < cap:
                router.reservoirs[e][j] = row
    router.centroids = None
    router.centroid_owner = None


def _shallow_forward(router, phi):
    z1 = phi @ router.W1.T + router.b1
    a1 = np.maximum(z1, 0.0)
    return z1, a1, a1 @ router.W2.T + router.b2


def _shallow_steps(router, e, phi):
    B = phi.shape[0]
    for _ in range(router.iters):
        z1, a1, logits = _shallow_forward(router, phi)
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        dlogits = p
        dlogits[:, e] -= 1.0
        dlogits /= B
        gw2 = dlogits.T @ a1
        gb2 = dlogits.sum(axis=0)
        da1 = dlogits @ router.W2
        dz1 = da1 * (z1 > 0.0)
        gw1 = dz1.T @ phi
        gb1 = dz1.sum(axis=0)
        if not (np.isfinite(gw1).all() and np.isfinite(gw2).all()):
            raise NumericalError("non-finite gradient in shallow router")
        router.W2 -= router.lr * gw2
        router.b2 -= router.lr * gb2
        gw1 *= router.lr
        router.W1 -= gw1
        router.b1 -= router.lr * gb1


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows of ``x`` x rows of ``centers``.

    Broadcasts the difference a block of rows at a time: the whole
    len(x) x len(centers) x M tensor would dominate the run's peak memory.
    Each entry is reduced over M exactly as the unblocked broadcast does.
    """
    out = np.empty((len(x), len(centers)))
    step = max(1, _DIST_BLOCK // centers.size)
    for i in range(0, len(x), step):
        diff = x[i:i + step, None, :] - centers[None, :, :]
        out[i:i + step] = np.square(diff, out=diff).sum(axis=2)
    return out


def baseline_finalize(router: BaselineRouter) -> BaselineRouter:
    """Run Lloyd's iterations for kmeans; no-op for the other kinds and for
    a kmeans router already finalized on its current reservoirs."""
    if router.kind != "kmeans" or router.centroids is not None:
        return router
    centroids = []
    owners = []
    for e in range(router.num_experts):
        rows = router.reservoirs[e][:router.fill[e]]
        if len(rows) == 0:
            continue
        k = min(router.K, len(rows))
        rng = np.random.default_rng(
            np.random.SeedSequence([router.seed, TAG_KMEANS, e]))
        centers = rows[rng.choice(len(rows), size=k, replace=False)].copy()
        previous = None
        for _ in range(LLOYD_MAX_ITERS):
            assign = np.argmin(_sq_dists(rows, centers), axis=1)
            if previous is not None and np.array_equal(assign, previous):
                break
            previous = assign
            for j in range(k):
                members = rows[assign == j]
                if len(members):
                    centers[j] = members.mean(axis=0)
        centroids.append(centers)
        owners.extend([e] * k)
    router.centroids = np.vstack(centroids)
    router.centroid_owner = np.array(owners, dtype=np.int64)
    return router


def baseline_route(router: BaselineRouter, features: np.ndarray,
                   expansion: RandomExpansion,
                   phi: np.ndarray | None = None) -> np.ndarray:
    """Select an expert per row (ties to the lowest id, as everywhere)."""
    if phi is None:
        phi = expansion(np.atleast_2d(features))
    phi = np.atleast_2d(phi)

    if router.kind == "prototype":
        means = router.means
        if router.metric == "cosine":
            pn = phi / np.maximum(np.linalg.norm(phi, axis=1, keepdims=True),
                                  1e-300)
            mn = means / np.maximum(
                np.linalg.norm(means, axis=1, keepdims=True), 1e-300)
            scores = pn @ mn.T
        else:
            scores = -_sq_dists(phi, means)
        scores[:, router.counts == 0] = -np.inf
        return np.argmax(scores, axis=1)

    if router.kind == "naive_bayes":
        scores = np.full((phi.shape[0], router.num_experts), -np.inf)
        for e in range(router.num_experts):
            if router.counts[e] == 0:
                continue
            var = router.m2[e] / router.counts[e] + NB_EPS
            diff = phi - router.means[e]
            scores[:, e] = -0.5 * (
                np.log(2.0 * np.pi * var).sum()
                + (diff * diff / var).sum(axis=1))
        return np.argmax(scores, axis=1)

    if router.kind == "kmeans":
        if router.centroids is None:
            raise NotSolvedError(
                "kmeans baseline not finalized; call baseline_finalize first")
        d2 = _sq_dists(phi, router.centroids)
        return router.centroid_owner[np.argmin(d2, axis=1)]

    _, _, logits = _shallow_forward(router, phi)
    return np.argmax(logits, axis=1)


def oracle_route(true_label: int, history) -> int | None:
    """Lowest-id expert whose training stream contained the label."""
    for e, classes in enumerate(history):
        if true_label in classes:
            return e
    return None


# ---------------------------------------------------------------------------
# checkpoint support
# ---------------------------------------------------------------------------

def baseline_snapshot(router: BaselineRouter) -> dict:
    snap = {
        "counts": router.counts,
        "means": router.means,
        "m2": router.m2,
        "fill": np.array(router.fill, dtype=np.int64),
        "seen": np.array(router.seen, dtype=np.int64),
    }
    for e, res in enumerate(router.reservoirs):
        snap[f"reservoir_{e}"] = res
    if router.kind == "trained_shallow":
        snap.update(W1=router.W1, b1=router.b1, W2=router.W2, b2=router.b2)
    return snap


def baseline_restore(router: BaselineRouter, snap: dict) -> BaselineRouter:
    while router.num_experts < len(snap["counts"]):
        router.register_expert()
    router.counts = np.array(snap["counts"], dtype=np.int64)
    router.means = np.array(snap["means"])
    router.m2 = np.array(snap["m2"])
    router.fill = [int(v) for v in snap["fill"]]
    router.seen = [int(v) for v in snap["seen"]]
    router.reservoirs = [np.array(snap[f"reservoir_{e}"])
                         for e in range(router.num_experts)]
    router.centroids = None
    router.centroid_owner = None
    if router.kind == "trained_shallow":
        router.W1 = np.array(snap["W1"])
        router.b1 = np.array(snap["b1"])
        router.W2 = np.array(snap["W2"])
        router.b2 = np.array(snap["b2"])
    return router
