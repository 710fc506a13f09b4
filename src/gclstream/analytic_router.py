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
  one in-place ``dsyrk`` per batch (B*M^2 flops).  A solve factors
  A = G + lambda*I = L L^T (M^3/3 flops) and keeps L; later batches are also
  kept as rows, and the next solve adds them to A by the Sherman-Morrison-
  Woodbury identity (Hager, SIAM Review 31, 1989): with W = L^-1 Phi^T
  (one ``dtrsm``, B*M^2 flops a batch) and z = L^-1 Q,
  U^T = L^-T (z - W (I + W^T W)^-1 W^T z), where the Cholesky factor of the
  capacitance matrix I + W^T W grows as the dual factor does.  G is
  factored again only when no factor is held (the first solve after the
  fold), when more than M/3 rows arrived since the last solve (whitening
  them would cost about a factorization), when the kept rows outgrow their
  room, or when the capacitance matrix does not factor.

Neither form holds more than two M x M arrays: the dual touches N*M + N^2 of
their entries; the primal keeps L^T in G's strict upper triangle, and the
kept rows and their capacitance factor in the other buffer.  Experts are only
ever added: growing from T to T+1 zero-pads Q with a new column.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import NotSolvedError, NumericalError, ShapeError
from .expansion import ExpandedBatch


def _scipy_linalg_module(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded without the
    ``scipy.linalg`` package, whose init imports ~300 more modules (numpy.f2py
    and numpy.testing among them) for ~27 MB of RSS and ~0.2 s in every
    process.  ``scipy.linalg.blas`` and ``.lapack`` re-export these modules'
    routines unchanged, so the router calls the very same objects.  The
    module is registered under its own name, so a later ``import scipy.linalg``
    reuses it, and one already loaded is reused here."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    # find_spec imports the top-level scipy package (cheap; on Windows it puts
    # the bundled OpenBLAS on the DLL path) but not scipy.linalg.
    package = importlib.util.find_spec("scipy.linalg")
    spec = importlib.machinery.PathFinder.find_spec(
        fullname, package.submodule_search_locations)
    if spec is None:
        raise ImportError(f"scipy has no compiled module {fullname}",
                          name=fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[fullname] = module
    return module


_fblas = _scipy_linalg_module("_fblas")
_flapack = _scipy_linalg_module("_flapack")
dsyrk, dgemm, dtrsm = _fblas.dsyrk, _fblas.dgemm, _fblas.dtrsm
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

# The fold adds the rows to G this many at a time: wider dsyrk panels touch
# more of OpenBLAS's work buffers, which stay resident (~1 MB at M=1024).
_FOLD_ROWS = 64

# L's strict lower triangle moves into G's strict upper one this many
# columns at a time; the diagonal tiles copy through this mask.
_TILE = 64
_STRICT_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)


def kept_cap(M: int) -> int:
    """The most rows r that factor_buf holds next to their capacitance
    factor: the largest r with r*M + r^2 <= M^2, floor(0.618*M)."""
    return (isqrt(5 * M * M) - M) // 2


@dataclass
class RouterState:
    """Streaming statistics and the (lazily) solved routing matrix.

    ``gram`` is an F-contiguous float64 M x M array: in the dual form
    (``samples_seen <= M``) the rows seen, as columns, with their expert ids
    in ``row_expert``; in the primal form G's lower triangle, and above the
    diagonal the strict upper triangle of L^T while ``factor_diag`` holds
    L's diagonal (L the Cholesky factor of G + (lambda + ``jitter_used``) I
    at the last factorization), else scratch: zeros from the fold to the
    first factorization, a stale L^T once the held factor is dropped.
    ``solved`` holds U (T x M) until the next accumulate/grow.
    ``factor_buf`` is solve()'s Fortran-ordered M x M workspace, allocated
    on first use.  Its flat head holds, in the dual form, the Cholesky
    factor of K + (lambda + ``jitter_used``) I over the first ``factored``
    rows.  In the primal form its first ``kept`` columns are the rows kept
    since the last factorization, the first ``factored`` of them whitened
    (W = L^-1 Phi^T), and the Cholesky factor of I + W^T W sits at the
    head of its tail past ``kept_cap(M)`` columns.
    """

    gram: np.ndarray            # M x M: Phi^T (dual) or G below, L^T above
    proto: np.ndarray           # M x T
    lam: float
    samples_seen: int = 0
    row_expert: np.ndarray = field(
        default_factory=lambda: np.zeros(0, np.int64))
    solved: np.ndarray | None = None
    jitter_used: float = 0.0    # last jitter that made the factorization pass
    factored: int = 0
    kept: int = 0
    factor_diag: np.ndarray | None = None
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

    def _region(self) -> np.ndarray:
        """The flat stretch of factor_buf whose head holds the factor over
        the first ``factored`` rows: all of it in the dual form, its tail
        past the kept rows' room in the primal."""
        flat = self.factor_buf.reshape(-1, order="F")
        return flat if self.dual else flat[self.M * kept_cap(self.M):]


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
        if dsyrk(1.0, phi.T, beta=1.0, c=state.gram, lower=1,
                 overwrite_c=1) is not state.gram:
            raise ShapeError("router Gram must be an F-contiguous float64 "
                             "array; the batch was not accumulated")
        if state.factor_diag is not None:
            _keep(state, phi)
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
        dsyrk(1.0, rows[:, i:min(i + _FOLD_ROWS, n)], beta=1.0,
              c=state.gram, lower=1, overwrite_c=1)
    state.factor_buf = rows


def _keep(state: RouterState, phi: np.ndarray) -> None:
    """Copy a primal batch into factor_buf's next columns for the next
    solve to whiten, or drop the held factor once more than M/3 rows have
    arrived since the last solve or the kept rows outgrow their room."""
    r, B = state.kept, len(phi)
    if 3 * (r + B - state.factored) > state.M or r + B > kept_cap(state.M):
        state.factor_diag, state.kept, state.factored = None, 0, 0
    else:
        state.factor_buf[:, r:r + B] = phi.T
        state.kept = r + B


def solve(state: RouterState) -> np.ndarray:
    """Return routing weights U (T x M) with (G + lam*I) U^T = Q.

    Idempotent until the next accumulate/grow.  In the dual form a first
    solve, or new rows whose block does not factor, rebuild the factor; in
    the primal form G is factored only when the held factor cannot take the
    kept rows (see the module docstring).
    """
    if state.solved is not None:
        return state.solved
    n, T = state.samples_seen, state.num_experts
    if not state.dual:
        ut = _woodbury(state) if state.factor_diag is not None else None
        if ut is None:
            ut = _refactor(state)
    elif n == 0:
        ut = np.zeros((state.M, T))
    else:
        rows = state.gram[:, :n]
        factor = _grow(rows, state._region(), state.factored, state.lam,
                       state.jitter_used) if state.factored else None
        if factor is None:
            factor = _factor(state, n, lambda buf: dsyrk(
                1.0, rows, trans=1, c=buf, lower=1, overwrite_c=1))
        state.factored = n
        targets = np.asfortranarray(np.eye(T)[state.row_expert])  # one-hot Y
        ut = rows @ dpotrs(factor, targets, lower=1, overwrite_b=1)[0]
    state.solved = np.ascontiguousarray(ut.T)
    return state.solved


def _head(region: np.ndarray, n: int) -> np.ndarray:
    """The F-ordered n x n matrix in the first n*n entries of the flat
    ``region``."""
    return region[:n * n].reshape((n, n), order="F")


def _diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the F-contiguous square ``a``'s diagonal."""
    return a.reshape(-1, order="F")[::len(a) + 1]


def _factor(state: RouterState, n: int, fill) -> np.ndarray:
    """Factor, at the head of factor_buf, the n x n matrix ``fill`` writes
    there (G or K) plus lam*I.  The SPD factorization gets a jitter of
    1e-10*trace/M (trace(K) = trace(G)) escalated x10 up to three times
    before giving up."""
    if state.factor_buf is None:
        state.factor_buf = np.empty((state.M, state.M), order="F")
    buf = _head(state.factor_buf.reshape(-1, order="F"), n)
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
        factor, info = dpotrf(buf, lower=1, clean=0, overwrite_a=1)
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


def _grow(cols: np.ndarray, region: np.ndarray, k: int, shift: float,
          jitter: float) -> np.ndarray | None:
    """Grow the Cholesky factor L11 of cols[:, :k]^T cols[:, :k] + (shift +
    jitter) I, held at the head of the flat ``region``, to all n columns of
    ``cols``, or None if the new block does not factor: one GEMM for the
    new columns of the product, one ``dtrsm`` against all of L11 (block by
    block is several times slower), and L11's columns moved, last first, to
    leading dimension n (LAPACK would copy a strided view).  The dual form
    grows the factor of K + lambda*I by its new rows, the primal the
    capacitance factor of I + W^T W by its new whitened rows."""
    n = cols.shape[1]
    if k == n:
        return _head(region, n)
    cross = dgemm(1.0, cols, cols[:, k:], trans_a=1)
    l22 = cross[k:]
    if k:
        l21t = dtrsm(1.0, _head(region, k), cross[:k], lower=1)
        l22 = dsyrk(-1.0, l21t, beta=1.0, c=l22, trans=1, lower=1)
    l22.flat[::n - k + 1] += shift
    l22.flat[::n - k + 1] += jitter
    l22, info = dpotrf(l22, lower=1, clean=0, overwrite_a=1)
    if info:
        return None
    for j in range(k - 1, 0, -1):
        region[j * n:j * n + k] = region[j * k:j * k + k]
    factor = _head(region, n)
    if k:
        factor[k:, :k] = l21t.T
    factor[k:, k:] = l22
    return factor


def _refactor(state: RouterState) -> np.ndarray:
    """U^T from a fresh factorization of G + lam*I in factor_buf, whose
    factor L is then held: its strict lower triangle, transposed, in G's
    strict upper one, a tile at a time, and its diagonal in
    ``factor_diag``."""
    state.factor_diag, state.kept, state.factored = None, 0, 0
    factor = _factor(state, state.M, lambda buf: np.copyto(buf, state.gram))
    ut, _ = dpotrs(factor, state.proto, lower=1)
    for j in range(0, state.M, _TILE):
        e = min(j + _TILE, state.M)
        state.gram[j:e, e:] = factor[e:, j:e].T
        np.copyto(state.gram[j:e, j:e], factor[j:e, j:e].T,
                  where=_STRICT_UPPER[:e - j, :e - j])
    state.factor_diag = _diagonal(factor).copy()
    return ut


def _woodbury(state: RouterState) -> np.ndarray | None:
    """U^T from the held factor L and the rows kept since it was taken, or
    None if the capacitance matrix does not factor: whiten the rows that
    arrived since the last solve in place (W = L^-1 Phi^T), grow the
    capacitance factor of I + W^T W by them, and return
    L^-T (z - W (I + W^T W)^-1 W^T z) for z = L^-1 Q.  The triangular
    solves read L^T from G's upper triangle, with L's diagonal swapped onto
    G's for their duration."""
    k, r, lt = state.factored, state.kept, state.gram
    W = state.factor_buf[:, :r]
    diag = _diagonal(lt)
    own = diag.copy()
    diag[...] = state.factor_diag  # G's upper triangle is now L^T
    try:
        if k < r:  # in place: an F-contiguous float64 view
            dtrsm(1.0, lt, W[:, k:], trans_a=1, overwrite_b=1)
        capacitance = _grow(W, state._region(), k, 1.0, 0.0)
        if capacitance is None:
            return None
        state.factored = r
        z = dtrsm(1.0, lt, state.proto, trans_a=1)
        if r:
            s, _ = dpotrs(capacitance, dgemm(1.0, W, z, trans_a=1),
                          lower=1, overwrite_b=1)
            z = dgemm(-1.0, W, s, beta=1.0, c=z, overwrite_c=1)
        return dtrsm(1.0, lt, z, overwrite_b=1)
    finally:
        diag[...] = own  # G's own diagonal back


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

