"""Streaming closed-form ridge router.

The router keeps two sufficient statistics over expanded features: the Gram
matrix G (M x M) and per-expert feature sums Q (M x T).  Each training batch
adds Phi^T Phi to G and the column sums of Phi to the column of the expert
that was active.  Routing weights come from one symmetric positive-definite
solve, (G + lambda*I) U^T = Q, performed lazily at evaluation time; the
result is exactly the batch ridge regression onto one-hot expert labels, so a
brute-force oracle can verify the streaming path.

G is symmetric, so only its lower triangle is stored, in the Fortran order
LAPACK factors it in: ``accumulate`` updates it with one in-place BLAS
``dsyrk`` (B*M^2 flops for a batch of B rows), and ``solve`` copies it whole
into its factorization buffer and factors the lower triangle.  The upper
triangle is not maintained; ``full_gram`` mirrors the lower one into a
C-ordered matrix wherever a full matrix is needed (``RouterState.state``,
which checkpoints save).

Experts are only ever added: growing from T to T+1 zero-pads Q with a new
column, leaving everything already accumulated untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import NotSolvedError, NumericalError, ShapeError, check_shape
from .expansion import ExpandedBatch

# Tile edge for full_gram's mirror of the Fortran-ordered G into a C-ordered
# matrix: whole-matrix F -> C copies miss cache on every element.
_COPY_TILE = 64


@dataclass
class RouterState:
    """Streaming statistics and the (lazily) solved routing matrix.

    ``gram`` is an F-contiguous float64 M x M array whose lower triangle
    (diagonal included) holds G; its upper triangle is not maintained and may
    hold anything -- read the full matrix through ``full_gram``.

    ``solved`` holds U with shape T x M once solve() has run and no
    accumulate/grow has happened since; anything that mutates the statistics
    resets it to None.  ``factor_buf`` is solve()'s Fortran-ordered M x M
    workspace, allocated on first use and never checkpointed.
    """

    gram: np.ndarray            # M x M, lower triangle of the symmetric PSD G
    proto: np.ndarray           # M x T
    lam: float
    samples_seen: int = 0
    solved: np.ndarray | None = None
    jitter_used: float = 0.0    # last jitter that made the factorization pass
    factor_buf: np.ndarray | None = field(default=None, repr=False,
                                          compare=False)

    @property
    def M(self) -> int:
        return self.gram.shape[0]

    @property
    def num_experts(self) -> int:
        return self.proto.shape[1]

    def state(self) -> dict:
        return {"gram": full_gram(self), "proto": self.proto,
                "samples_seen": self.samples_seen}

    def load(self, snap: dict) -> None:
        """Keeps G F-contiguous float64, as ``accumulate`` needs."""
        self.gram = np.asfortranarray(
            check_shape(snap, "gram", self.gram.shape), dtype=np.float64)
        self.proto = np.array(check_shape(snap, "proto", self.proto.shape))
        self.samples_seen = int(snap["samples_seen"])
        self.solved = None


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
    """Fold one expanded batch into G and Q. Mutates and returns ``state``."""
    phi = np.asarray(batch.values, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[1] != state.M:
        raise ShapeError(
            f"batch width {phi.shape[-1] if phi.ndim else '?'} does not match "
            f"router width {state.M}"
        )
    if phi.shape[0] == 0:
        return state
    if batch.expert_id is None or not 0 <= batch.expert_id < state.num_experts:
        raise ValueError(
            f"expert id {batch.expert_id!r} is not registered "
            f"(have {state.num_experts} experts)"
        )
    if not np.isfinite(phi).all():
        raise NumericalError("non-finite values in expanded batch")

    # A c that is not F-contiguous float64 would make scipy update a copy
    # and silently drop the batch.
    if blas.dsyrk(1.0, phi.T, beta=1.0, c=state.gram, lower=1,
                  overwrite_c=1) is not state.gram:
        raise ShapeError("router Gram must be an F-contiguous float64 array; "
                         "the batch was not accumulated")
    state.proto[:, batch.expert_id] += phi.sum(axis=0)
    state.samples_seen += phi.shape[0]
    state.solved = None
    return state


def solve(state: RouterState) -> np.ndarray:
    """Return routing weights U (T x M) with (G + lam*I) U^T = Q.

    Idempotent until the next accumulate/grow.  The SPD factorization gets a
    trace-scaled jitter escalated x10 up to three times before giving up.
    """
    if state.solved is not None:
        return state.solved

    M = state.M
    if state.factor_buf is None:
        state.factor_buf = np.empty((M, M), order="F")
    buf = state.factor_buf
    jitter = 0.0
    step = 1e-10 * np.trace(state.gram) / M
    for attempt in range(4):
        # A failed dpotrf leaves buf half overwritten: start every attempt
        # from G.  lam and jitter are added one after the other, as two
        # separate roundings.
        np.copyto(buf, state.gram)
        buf.flat[::M + 1] += state.lam
        buf.flat[::M + 1] += jitter
        factor, info = lapack.dpotrf(buf, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            break
        if attempt == 3:
            raise NumericalError(
                f"SPD factorization failed at jitter {jitter:g} "
                f"(lambda={state.lam:g})"
            )
        jitter = step if jitter == 0.0 else jitter * 10.0
    ut, _ = lapack.dpotrs(factor, state.proto, lower=1)
    state.solved = np.ascontiguousarray(ut.T)
    state.jitter_used = jitter
    return state.solved


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


def full_gram(state: RouterState) -> np.ndarray:
    """G as a full symmetric matrix: the stored lower triangle, mirrored tile
    by tile into one new C-ordered M x M array; each entry is the stored one
    plus 0.0, as in ``tril(G) + tril(G, -1).T``, but without that sum's
    temporaries."""
    G, t = state.gram, _COPY_TILE
    full = np.empty(G.shape)
    for i in range(0, state.M, t):
        for j in range(0, i, t):
            np.add(G[i:i + t, j:j + t], 0.0, out=full[i:i + t, j:j + t])
            np.add(G[i:i + t, j:j + t].T, 0.0, out=full[j:j + t, i:i + t])
        tile = G[i:i + t, i:i + t]
        full[i:i + t, i:i + t] = np.tril(tile) + np.tril(tile, -1).T
    return full

