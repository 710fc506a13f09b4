"""Alternative routers over the same expanded features.

Every baseline consumes exactly the ExpandedBatch stream the analytic router
sees and keeps bounded per-expert statistics online; none touches the
analytic router's statistics or the experts' parameters.

Each kind is one class that holds only the arrays its ``route`` reads and
takes only its own parameters, behind one protocol: ``register_expert()``
returns the new id, ``update(e, phi)`` folds in expert ``e``'s rows,
``finalize()`` fits what ``update`` leaves stale, ``route(phi)`` picks an
expert per row (ties to the lowest id), and ``state()``/``load(dict)``
checkpoint the arrays (``load`` reads only its own keys, of this router's
shapes).  ``baseline_fit_update`` checks a batch with ``ExpandedBatch.rows``,
as the analytic router's ``accumulate`` does; ``baseline_finalize`` and
``baseline_route`` are the other entry points.

K-means fits lazily: ``baseline_route`` finalizes first, which runs Lloyd's
iterations once per change of the reservoirs, as ``analytic_router.solve``
factors once per change of the Gram.  The iterations stop at their fixed
point: once an assignment repeats the previous one, every later iteration
would average the same members in the same order (an empty cluster keeps its
centre), so the centres are bit-identical to those of the full 25
iterations, which stay the cap for a reservoir that never settles.  Each
assignment, in Lloyd's iterations and in ``route``, comes from one GEMM
(``_nearest``): a row whose nearest centre wins by more than the GEMM's
rounding-error bound keeps it, and only a near or exact tie is settled by
the exact blocked distances of ``_sq_dists``, so every assignment is the one
those distances give, bit for bit.

The oracle router is evaluation-only: given the true label it returns the
lowest-id expert whose training data contained that label, or None if no
expert trained it.  The harness evaluates only rows of trained classes, so it
never receives None.
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import NotSolvedError, NumericalError, ShapeError, check_shape
from .expansion import ExpandedBatch

TAG_RESERVOIR = 21
TAG_KMEANS = 22
TAG_SHALLOW = 23

NB_EPS = 1e-6  # variance smoothing against rectified-zero coordinates

# Element budget of one block of rows in the two blocked broadcasts: the
# rows x centers x M difference tensor of _sq_dists, the exact path that
# settles the rows _nearest cannot certify (and the reference it is tested
# against), and the rows x M scoring buffer of NaiveBayesRouter.route.  512 KB
# of float64, so each block's subtract, square and sum passes stay in a 4 MB
# L2.  Timed for _sq_dists on a 2-core Xeon at M=1024, 512 rows x 10 centers:
# 23.9 ms per call at 1 << 20, 11.7 ms at 1 << 16, 12.8 ms at 1 << 15,
# 15.7 ms at 1 << 14.  The size is exact at any value: every entry is one
# contiguous reduction over M, whichever block holds it.
_DIST_BLOCK = 1 << 16

LLOYD_MAX_ITERS = 25


class _Baseline:
    """Protocol defaults shared by the four kinds."""

    STATE: tuple = ()  # the arrays state() saves and load() restores

    def finalize(self) -> None:
        """Nothing to fit: ``route`` reads what ``update`` keeps current."""

    def state(self) -> dict:
        return {key: getattr(self, key) for key in self.STATE}

    def load(self, snap: dict) -> None:
        for key, held in self.state().items():
            setattr(self, key, np.array(
                check_shape(snap, key, held.shape, held.dtype)))


class PrototypeRouter(_Baseline):
    """Cosine similarity to each expert's running mean of expanded rows."""

    STATE = ("counts", "means")

    def __init__(self, M: int, num_experts: int = 1):
        self.M = M
        self.counts = np.zeros(num_experts, dtype=np.int64)
        self.means = np.zeros((num_experts, M))

    @property
    def num_experts(self) -> int:
        return len(self.counts)

    def register_expert(self) -> int:
        self.counts = np.append(self.counts, 0)
        self.means = np.vstack([self.means, np.zeros((1, self.M))])
        return self.num_experts - 1

    def update(self, e: int, phi: np.ndarray):
        """Chan's parallel mean update; returns the batch mean and its
        offset from the previous running mean, which m2 folds in."""
        nb = phi.shape[0]
        mean_b = phi.mean(axis=0)
        n = self.counts[e]
        total = n + nb
        delta = mean_b - self.means[e]
        self.means[e] += delta * (nb / total)
        self.counts[e] = total
        return mean_b, delta

    def route(self, phi: np.ndarray) -> np.ndarray:
        pn = phi / np.maximum(np.linalg.norm(phi, axis=1, keepdims=True),
                              1e-300)
        mn = self.means / np.maximum(
            np.linalg.norm(self.means, axis=1, keepdims=True), 1e-300)
        scores = pn @ mn.T
        scores[:, self.counts == 0] = -np.inf
        return np.argmax(scores, axis=1)


class NaiveBayesRouter(PrototypeRouter):
    """Diagonal-Gaussian likelihood per expert from Welford's running mean
    and m2; population variance is m2 / count, smoothed by NB_EPS."""

    STATE = ("counts", "means", "m2")

    def __init__(self, M: int, num_experts: int = 1):
        super().__init__(M, num_experts)
        self.m2 = np.zeros((num_experts, M))

    def register_expert(self) -> int:
        self.m2 = np.vstack([self.m2, np.zeros((1, self.M))])
        return super().register_expert()

    def update(self, e: int, phi: np.ndarray) -> None:
        n, nb = self.counts[e], phi.shape[0]
        mean_b, delta = super().update(e, phi)
        m2_b = ((phi - mean_b) ** 2).sum(axis=0)
        self.m2[e] += m2_b + delta * delta * (n * nb / (n + nb))

    def route(self, phi: np.ndarray) -> np.ndarray:
        return np.argmax(self._scores(phi), axis=1)

    def _scores(self, phi: np.ndarray) -> np.ndarray:
        """Each row's log-likelihood under each expert (-inf for an expert
        with no rows), a block of rows at a time in one reused buffer,
        where the whole-pool formula ``-0.5 * (log(2 pi var).sum() +
        ((phi - mean)**2 / var).sum(axis=1))`` holds pool x M temporaries.
        Each score is still one elementwise pass and one contiguous sum
        over M, so it keeps its exact bits whichever block holds its row."""
        n = phi.shape[0]
        scores = np.full((n, self.num_experts), -np.inf)
        trained = np.flatnonzero(self.counts)
        var = [self.m2[e] / self.counts[e] + NB_EPS for e in trained]
        log_norm = [np.log(2.0 * np.pi * v).sum() for v in var]
        step = max(1, _DIST_BLOCK // self.M)
        buf = np.empty((min(step, n), self.M))
        for i in range(0, n, step):
            block = phi[i:i + step]
            diff = buf[:len(block)]
            for e, v, norm in zip(trained, var, log_norm):
                np.subtract(block, self.means[e], out=diff)
                np.square(diff, out=diff)
                diff /= v
                scores[i:i + len(block), e] = -0.5 * (norm + diff.sum(axis=1))
        return scores


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


def _row_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's squared norm and its square root, as ``_nearest`` takes
    them."""
    sq_x = np.einsum("ij,ij->i", x, x)
    return sq_x, np.sqrt(sq_x)


def _nearest(x: np.ndarray, centers: np.ndarray,
             norms: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Index of each row's nearest centre: ``np.argmin(_sq_dists(x,
    centers), axis=1)`` bit for bit, from one GEMM.  ``norms`` is
    ``_row_norms(x)``, passed by a caller that asks about the same rows
    again and again.

    g = |x|^2 - 2 x.c + |c|^2 needs one len(x) x len(centers) GEMM where
    ``_sq_dists`` broadcasts a difference tensor, but it rounds differently,
    so it only proposes.  With width M and u = 2^-53, gamma_n = n u/(1 - n u)
    bounds the relative error of an n-term dot product in any summation
    order, with or without FMA (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1).  Let d be the exact squared distance:

    - ``_sq_dists`` rounds each difference and square and sums M terms, so
      |e - d| <= gamma_{M+2} d, and d <= (|x| + |c|)^2;
    - g's three dot products err by at most gamma_M times |x|^2, 2|x||c| and
      |c|^2, and its two additions round once each, so
      |g - d| <= gamma_{M+2} (|x| + |c|)^2.

    Hence |g - e| <= 2 gamma_{M+2} (|x| + |c|)^2.  ``eps`` doubles that (as
    4 gamma_{M+8}), which covers the rounding of eps itself, of the square
    roots and of g +- eps; its absolute term covers gradual underflow, where
    a product may lose up to 2^-1075 outright.  Let b be the row's argmin of
    g.  If g_b + eps_b < g_j - eps_j for every j != b, then
    e_b <= g_b + eps_b < g_j - eps_j <= e_j, so b is the unique argmin of e.
    Every other row -- a near or exact tie, or any NaN or inf, since a NaN
    comparison is false -- is settled by ``_sq_dists`` and ``np.argmin``, so
    ties still go to the lowest index.
    """
    M = x.shape[1]
    nu = (M + 8) * 2.0 ** -53
    gamma = nu / (1.0 - nu)
    sq_x, root_x = _row_norms(x) if norms is None else norms
    sq_c = np.einsum("ij,ij->i", centers, centers)
    g = x @ centers.T
    g *= -2.0
    g += sq_x[:, None]
    g += sq_c
    eps = root_x[:, None] + np.sqrt(sq_c)
    np.square(eps, out=eps)
    eps *= 4.0 * gamma
    eps += (M + 8) * 2.0 ** -1070
    best = np.argmin(g, axis=1)
    rows = np.arange(len(x))
    upper = g[rows, best] + eps[rows, best]
    lower = np.subtract(g, eps, out=g)
    lower[rows, best] = np.inf
    exact = np.flatnonzero(~(lower.min(axis=1, initial=np.inf) > upper))
    if len(exact):
        best[exact] = np.argmin(_sq_dists(x[exact], centers), axis=1)
    return best


class KMeansRouter(_Baseline):
    """K centroids per expert, clustered from a uniform reservoir of its
    rows; a row routes to the owner of its nearest centroid."""

    def __init__(self, M: int, seed: int, num_experts: int = 1, K: int = 10,
                 reservoir_cap: int = 512):
        self.M = M
        self.seed = seed
        self.K = K
        self.reservoir_cap = reservoir_cap
        self.reservoirs = [np.zeros((reservoir_cap, M))
                           for _ in range(num_experts)]
        self.seen = [0] * num_experts
        self.centroids: np.ndarray | None = None
        self.centroid_owner: np.ndarray | None = None

    @property
    def num_experts(self) -> int:
        return len(self.seen)

    def register_expert(self) -> int:
        self.reservoirs.append(np.zeros((self.reservoir_cap, self.M)))
        self.seen.append(0)
        self.centroids = self.centroid_owner = None
        return self.num_experts - 1

    def update(self, e: int, phi: np.ndarray) -> None:
        """Uniform reservoir; acceptance keyed by (seed, expert, arrival
        count).  Expert e's reservoir holds min(seen[e], cap) rows."""
        cap = self.reservoir_cap
        for row in phi:
            self.seen[e] += 1
            n = self.seen[e]
            if n <= cap:
                self.reservoirs[e][n - 1] = row
            else:
                rng = np.random.default_rng(np.random.SeedSequence(
                    [self.seed, TAG_RESERVOIR, e, n]))
                j = int(rng.integers(n))
                if j < cap:
                    self.reservoirs[e][j] = row
        self.centroids = self.centroid_owner = None

    def finalize(self) -> None:
        """Lloyd's iterations per expert; a no-op while the centroids are
        current."""
        if self.centroids is not None:
            return
        centroids = []
        owners = []
        for e in range(self.num_experts):
            rows = self.reservoirs[e][:min(self.seen[e], self.reservoir_cap)]
            if len(rows) == 0:
                continue
            k = min(self.K, len(rows))
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, TAG_KMEANS, e]))
            centers = rows[rng.choice(len(rows), size=k, replace=False)].copy()
            norms, previous = _row_norms(rows), None
            for _ in range(LLOYD_MAX_ITERS):
                assign = _nearest(rows, centers, norms)
                if previous is not None and np.array_equal(assign, previous):
                    break
                previous = assign
                for j in range(k):
                    members = rows[assign == j]
                    if len(members):
                        centers[j] = members.mean(axis=0)
            centroids.append(centers)
            owners.extend([e] * k)
        if not centroids:
            raise NotSolvedError("kmeans baseline has no rows to cluster")
        self.centroids = np.vstack(centroids)
        self.centroid_owner = np.array(owners, dtype=np.int64)

    def route(self, phi: np.ndarray) -> np.ndarray:
        if self.centroids is None:
            raise NotSolvedError(
                "kmeans baseline not finalized; call baseline_finalize first")
        return self.centroid_owner[_nearest(phi, self.centroids)]

    def state(self) -> dict:
        return {"seen": np.array(self.seen, dtype=np.int64),
                **{f"reservoir_{e}": r for e, r in enumerate(self.reservoirs)}}

    def load(self, snap: dict) -> None:
        E, row = (self.num_experts,), (self.reservoir_cap, self.M)
        self.seen = check_shape(snap, "seen", E, np.int64).tolist()
        if min(self.seen, default=0) < 0:
            raise ShapeError("seen holds a negative count")
        self.reservoirs = [np.array(check_shape(snap, f"reservoir_{e}", row))
                           for e in range(self.num_experts)]
        self.centroids = self.centroid_owner = None


class ShallowRouter(_Baseline):
    """A ReLU hidden layer and a linear expert scorer trained online by
    softmax cross-entropy, each batch labelled with its expert.

    ``update`` runs ``iters`` gradient steps on one batch in kernel form.
    Every step reads the same B x M rows Phi, and the hidden-weight
    gradient of step k is dz1_k^T Phi, so with K = Phi Phi^T (B x B) the
    next step's pre-activation is, exactly in real arithmetic,

        z1_{k+1} = z1_k - lr K dz1_k - lr gb1_k,    gb1_k = sum_rows dz1_k,

    and W1 ends at W1 - (lr sum_k dz1_k)^T Phi.  One forward GEMM
    Phi W1^T, one K, ``iters - 1`` products K dz1 and one gradient GEMM
    replace ``iters`` of each large GEMM: at the desk preset (B=64, M=1024,
    H=512, iters=3) a batch costs ~151 MFLOP instead of 403, and W1 and its
    gradient are each passed over once instead of three times.  W2, b2 and
    b1 still step every iteration.  Rounding differs from the plain steps
    at ulp level only.  A non-finite gradient raises ``NumericalError``
    before its step writes: W2, b2 and b1 keep the batch's earlier steps,
    W1 none of them.

    ``grad_buf`` is the hidden-weight gradient's H x M workspace, allocated
    on the first update and never checkpointed: a fresh one per batch
    (4 MiB at the desk preset) would page-fault its memory in anew each
    time.  Subtracting the gradient with an in-place ``blas.dgemm`` into
    ``W1.T`` (beta=1) instead writes W1 before the gradient can be checked,
    and measured slower than this GEMM and one pass: 0.14-0.22 s against
    0.12-0.15 s of updates per desk seed (2-core Xeon).
    """

    STATE = ("W1", "b1", "W2", "b2")

    def __init__(self, M: int, seed: int, num_experts: int = 1,
                 hidden: int = 512, lr: float = 0.005, iters: int = 3):
        self.M = M
        self.lr = lr
        self.iters = iters
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, TAG_SHALLOW]))
        self.W1 = rng.standard_normal((hidden, M))
        self.W1 /= np.sqrt(M)
        self.b1 = np.zeros(hidden)
        self.W2 = np.zeros((num_experts, hidden))
        self.b2 = np.zeros(num_experts)
        self.grad_buf: np.ndarray | None = None

    @property
    def num_experts(self) -> int:
        return len(self.b2)

    def register_expert(self) -> int:
        self.W2 = np.vstack([self.W2, np.zeros((1, self.W1.shape[0]))])
        self.b2 = np.append(self.b2, 0.0)
        return self.num_experts - 1

    def _head(self, z1):
        a1 = np.maximum(z1, 0.0)
        return a1, a1 @ self.W2.T + self.b2

    def update(self, e: int, phi: np.ndarray) -> None:
        B = phi.shape[0]
        lr = self.lr
        if self.grad_buf is None:
            self.grad_buf = np.empty_like(self.W1)
        z1 = phi @ self.W1.T + self.b1
        K = phi @ phi.T if self.iters > 1 else None
        dz_sum = np.zeros_like(z1)
        for k in range(self.iters):
            a1, logits = self._head(z1)
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            dlogits = p
            dlogits[:, e] -= 1.0
            dlogits /= B
            gw2 = dlogits.T @ a1
            dz1 = (dlogits @ self.W2) * (z1 > 0.0)
            if not (np.isfinite(dz1).all() and np.isfinite(gw2).all()):
                raise NumericalError("non-finite gradient in shallow router")
            gb1 = dz1.sum(axis=0)
            self.W2 -= lr * gw2
            self.b2 -= lr * dlogits.sum(axis=0)
            self.b1 -= lr * gb1
            dz_sum += dz1
            if k + 1 < self.iters:
                z1 -= lr * (K @ dz1)
                z1 -= lr * gb1
        dz_sum *= lr
        gw1 = np.matmul(dz_sum.T, phi, out=self.grad_buf)
        if not np.isfinite(gw1).all():
            raise NumericalError("non-finite gradient in shallow router")
        self.W1 -= gw1

    def route(self, phi: np.ndarray) -> np.ndarray:
        _, logits = self._head(phi @ self.W1.T + self.b1)
        return np.argmax(logits, axis=1)


BASELINES = {
    "prototype": PrototypeRouter,
    "naive_bayes": NaiveBayesRouter,
    "kmeans": KMeansRouter,
    "trained_shallow": ShallowRouter,
}
BASELINE_KINDS = tuple(BASELINES)


def new_baseline(kind: str, M: int, **settings):
    """A ``kind`` router of width M; of the run's ``settings`` (seed, lr,
    iters, ...) it takes only those its constructor names."""
    if kind not in BASELINES:
        raise ValueError(
            f"unknown baseline kind {kind!r}; choose from {BASELINE_KINDS}")
    cls = BASELINES[kind]
    params = inspect.signature(cls).parameters
    return cls(M, **{k: v for k, v in settings.items() if k in params})


def baseline_fit_update(router, batch: ExpandedBatch):
    """Fold one expanded batch into the baseline's statistics."""
    phi = batch.rows(router.M, router.num_experts)
    if len(phi):
        router.update(batch.expert_id, phi)
    return router


def baseline_finalize(router):
    """Fit what ``route`` reads from the current statistics: Lloyd's
    iterations for k-means, a no-op for the other kinds and for a k-means
    router already finalized on its current reservoirs."""
    router.finalize()
    return router


def baseline_route(router, phi: np.ndarray) -> np.ndarray:
    """Select an expert per expanded row (ties to the lowest id, as
    everywhere)."""
    baseline_finalize(router)
    return router.route(np.atleast_2d(phi))


def oracle_route(true_label: int, history) -> int | None:
    """Lowest-id expert whose training stream contained the label."""
    for e, classes in enumerate(history):
        if true_label in classes:
            return e
    return None
