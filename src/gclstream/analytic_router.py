"""Streaming closed-form ridge router.

Routing weights U solve, lazily at evaluation time, the ridge regression of
one-hot expert labels Y (each row's active expert) on the expanded features
Phi: exactly the batch solution, which a brute-force oracle checks.  Each
batch adds its column sums to its expert's column of Q = Phi^T Y (M x T).
The rest of the state has one of two forms, by the number N of rows seen:

* dual, while N <= M: the rows, with U^T = Phi^T (K + lambda*I)^-1 Y for
  K = Phi Phi^T (kernel ridge regression in dual variables; Saunders,
  Gammerman & Vovk, 1998).  A batch is a column copy; the Cholesky factor
  of K + lambda*I grows by the rows added since the last solve.
* primal, from the batch that would take N past M, which first folds the
  rows into G = Phi^T Phi: G's lower triangle in Fortran order, updated by
  one in-place ``dsyrk`` per batch (B*M^2 flops) and copied whole into the
  factorization buffer to solve (G + lambda*I) U^T = Q (M^3/3 flops).

Neither form holds more than two M x M arrays; the dual touches N*M + N^2 of
their entries.  Experts are only ever added: growing from T to T+1 zero-pads
Q with a new column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import NotSolvedError, NumericalError, ShapeError, check_shape
from .expansion import ExpandedBatch

# The fold adds the rows to G this many at a time: wider dsyrk panels touch
# more of OpenBLAS's work buffers, which stay resident (~1 MB at M=1024).
_FOLD_ROWS = 64


@dataclass
class RouterState:
    """Streaming statistics and the (lazily) solved routing matrix.

    ``gram`` is an F-contiguous float64 M x M array: in the dual form
    (``samples_seen <= M``) the rows seen, as columns, with their expert ids
    in ``row_expert``; in the primal form G's lower triangle, zero above the
    diagonal, as a checkpoint writes it.  ``solved`` holds U (T x M) until
    the next accumulate/grow.  ``factor_buf`` is solve()'s Fortran-ordered
    M x M workspace, allocated on first use; in the dual form its head holds
    the Cholesky factor of K + (lambda + ``jitter_used``) I over the first
    ``factored`` rows.
    """

    gram: np.ndarray            # M x M: Phi^T (dual) or lower triangle of G
    proto: np.ndarray           # M x T
    lam: float
    samples_seen: int = 0
    row_expert: np.ndarray = field(
        default_factory=lambda: np.zeros(0, np.int64))
    solved: np.ndarray | None = None
    jitter_used: float = 0.0    # last jitter that made the factorization pass
    factored: int = 0
    factor_buf: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)

    @property
    def M(self) -> int:
        return self.gram.shape[0]

    @property
    def num_experts(self) -> int:
        return self.proto.shape[1]

    @property
    def dual(self) -> bool:
        return self.samples_seen <= self.M

    def state(self) -> dict:
        snap = {"proto": self.proto, "samples_seen": self.samples_seen}
        if not self.dual:
            return {"gram": self.gram, **snap}
        k = self.factored
        return {"rows": self.gram[:, :self.samples_seen].T,
                "row_expert": self.row_expert, "jitter_used": self.jitter_used,
                "factor": np.tril(_head(self.factor_buf, k)) if k
                else np.zeros((0, 0)), **snap}

    def load(self, snap: dict) -> None:
        """Keeps ``gram`` F-contiguous float64, as ``accumulate`` needs."""
        M, n = self.M, int(snap["samples_seen"])
        self.proto = np.array(check_shape(snap, "proto", self.proto.shape))
        self.solved, self.factor_buf, self.factored = None, None, 0
        self.row_expert, self.samples_seen = np.zeros(0, np.int64), n
        if n > M:
            gram = check_shape(snap, "gram", (M, M))
            if any(gram[:j, j].any() for j in range(1, M)):  # no M x M temp
                raise ShapeError("gram has a nonzero entry above its diagonal")
            self.gram = np.asfortranarray(gram, dtype=np.float64)
            return
        rows = check_shape(snap, "rows", (n, M))
        experts = check_shape(snap, "row_expert", (n,)).astype(np.int64)
        k = min(len(np.atleast_2d(snap["factor"])), n)  # rows it factors
        factor = check_shape(snap, "factor", (k, k))
        if ((experts < 0) | (experts >= self.num_experts)).any():
            raise ShapeError(f"row_expert id outside 0..{self.num_experts - 1}")
        self.gram = np.zeros((M, M), order="F")
        self.gram[:, :n] = rows.T
        if k:
            self.factor_buf = np.empty((M, M), order="F")
            _head(self.factor_buf, k)[...] = factor
        self.row_expert, self.factored = experts, k
        self.jitter_used = float(snap["jitter_used"])


def new_router_state(M: int, lam: float, num_experts: int = 1) -> RouterState:
    if M <= 0:
        raise ShapeError(f"M must be positive, got {M}")
    if lam <= 0:
        raise ValueError(f"ridge lambda must be positive, got {lam}")
    if num_experts < 1:
        raise ValueError(f"need at least one expert, got {num_experts}")
    return RouterState(
        gram=np.zeros((M, M), dtype=np.float64, order="F"),
        proto=np.zeros((M, num_experts), dtype=np.float64),
        lam=float(lam),
    )


def accumulate(state: RouterState, batch: ExpandedBatch) -> RouterState:
    """Fold one expanded batch into the router; mutates and returns it."""
    phi = batch.rows(state.M, state.num_experts)
    if not len(phi):
        return state

    n, B = state.samples_seen, phi.shape[0]
    if n + B <= state.M:
        state.gram[:, n:n + B] = phi.T
        state.row_expert = np.append(state.row_expert, [batch.expert_id] * B)
    else:
        if state.dual and n:
            _fold(state)
        # A c that is not F-contiguous float64 would make scipy update a copy
        # and silently drop the batch.
        if blas.dsyrk(1.0, phi.T, beta=1.0, c=state.gram, lower=1,
                      overwrite_c=1) is not state.gram:
            raise ShapeError("router Gram must be an F-contiguous float64 "
                             "array; the batch was not accumulated")
    state.proto[:, batch.expert_id] += phi.sum(axis=0)
    state.samples_seen += B
    state.solved = None
    return state


def _fold(state: RouterState) -> None:
    """Turn the stored rows into G: drop the dual factor, ``dsyrk`` the rows
    into a fresh zeroed G, and keep their buffer as the primal factor_buf."""
    n, rows = state.samples_seen, state.gram
    state.factor_buf, state.factored = None, 0
    state.row_expert = np.zeros(0, np.int64)
    state.gram = np.zeros((state.M, state.M), order="F")
    for i in range(0, n, _FOLD_ROWS):
        blas.dsyrk(1.0, rows[:, i:min(i + _FOLD_ROWS, n)], beta=1.0,
                   c=state.gram, lower=1, overwrite_c=1)
    state.factor_buf = rows


def solve(state: RouterState) -> np.ndarray:
    """Return routing weights U (T x M) with (G + lam*I) U^T = Q.

    Idempotent until the next accumulate/grow.  In the dual form a first
    solve, or new rows whose block does not factor, rebuild the factor.
    """
    if state.solved is not None:
        return state.solved
    n, T = state.samples_seen, state.num_experts
    if not state.dual:
        factor = _factor(state, state.M, lambda buf: np.copyto(buf, state.gram))
        ut, _ = lapack.dpotrs(factor, state.proto, lower=1)
    elif n == 0:
        ut = np.zeros((state.M, T))
    else:
        rows = state.gram[:, :n]
        factor = _append(state) if state.factored else None
        if factor is None:
            factor = _factor(state, n, lambda buf: blas.dsyrk(
                1.0, rows, trans=1, c=buf, lower=1, overwrite_c=1))
            state.factored = n
        targets = np.asfortranarray(np.eye(T)[state.row_expert])  # one-hot Y
        ut = rows @ lapack.dpotrs(factor, targets, lower=1, overwrite_b=1)[0]
    state.solved = np.ascontiguousarray(ut.T)
    return state.solved


def _head(buf: np.ndarray, n: int) -> np.ndarray:
    """The F-ordered n x n matrix in the first n*n entries of ``buf``."""
    return buf.reshape(-1, order="F")[:n * n].reshape((n, n), order="F")


def _factor(state: RouterState, n: int, fill) -> np.ndarray:
    """Factor, at the head of factor_buf, the n x n matrix ``fill`` writes
    there (G or K) plus lam*I.  The SPD factorization gets a jitter of
    1e-10*trace/M (trace(K) = trace(G)) escalated x10 up to three times
    before giving up."""
    if state.factor_buf is None:
        state.factor_buf = np.empty((state.M, state.M), order="F")
    buf = _head(state.factor_buf, n)
    jitter = 0.0
    for attempt in range(4):
        # A failed dpotrf leaves buf half overwritten: start every attempt
        # from the matrix.  lam and jitter are added one after the other, as
        # two separate roundings.
        fill(buf)
        if attempt == 0:
            step = 1e-10 * np.trace(buf) / state.M
        buf.flat[::n + 1] += state.lam
        buf.flat[::n + 1] += jitter
        factor, info = lapack.dpotrf(buf, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            break
        if attempt == 3:
            raise NumericalError(
                f"SPD factorization failed at jitter {jitter:g} "
                f"(lambda={state.lam:g})"
            )
        jitter = step if jitter == 0.0 else jitter * 10.0
    state.jitter_used = jitter
    return factor


def _append(state: RouterState) -> np.ndarray | None:
    """Grow the dual factor L11 of k rows to all n, or None if the new
    block does not factor: one GEMM for K's new columns, one ``dtrsm``
    against all of L11 (block by block is several times slower), and L11's
    columns moved, last first, to leading dimension n (LAPACK would copy a
    strided view)."""
    k, n = state.factored, state.samples_seen
    if k == n:
        return _head(state.factor_buf, n)
    cross = blas.dgemm(1.0, state.gram[:, :n], state.gram[:, k:n], trans_a=1)
    l21t = blas.dtrsm(1.0, _head(state.factor_buf, k), cross[:k], lower=1)
    l22 = blas.dsyrk(-1.0, l21t, beta=1.0, c=cross[k:], trans=1, lower=1)
    l22.flat[::n - k + 1] += state.lam
    l22.flat[::n - k + 1] += state.jitter_used
    l22, info = lapack.dpotrf(l22, lower=1, clean=0, overwrite_a=1)
    if info:
        return None
    flat = state.factor_buf.reshape(-1, order="F")
    for j in range(k - 1, 0, -1):
        flat[j * n:j * n + k] = flat[j * k:j * k + k]
    factor = _head(state.factor_buf, n)
    factor[k:, :k] = l21t.T
    factor[k:, k:] = l22
    state.factored = n
    return factor


def route(phi: np.ndarray,
          state: RouterState) -> tuple[np.ndarray, np.ndarray]:
    """Score experts for each expanded row and pick the argmax (lowest id on
    ties).

    ``state`` must be solved: an unsolved state is an error so that stale
    scores can never leak into an evaluation.
    """
    if state.solved is None:
        raise NotSolvedError(
            "router has unsolved updates; call solve(state) first"
        )
    phi = np.atleast_2d(phi)
    if phi.shape[1] != state.M:
        raise ShapeError(
            f"row width {phi.shape[1]} does not match router width {state.M}")
    scores = phi @ state.solved.T
    selections = np.argmax(scores, axis=1)  # first occurrence == lowest id
    return scores, selections


def grow(state: RouterState, new_expert_count: int) -> RouterState:
    """Zero-pad Q out to ``new_expert_count`` columns (experts never shrink)."""
    if new_expert_count <= state.num_experts:
        raise ValueError(
            f"cannot shrink experts from {state.num_experts} "
            f"to {new_expert_count}"
        )
    pad = np.zeros((state.M, new_expert_count - state.num_experts))
    state.proto = np.hstack([state.proto, pad])
    state.solved = None
    return state

