"""Fixed random feature expansion.

Frozen backbone embeddings h in R^d are lifted to phi(h) = act(h @ W) in R^M
through a dense Gaussian projection W that is fixed for the lifetime of a run.
Columns of W are generated independently from a counter-based bit generator
keyed by (seed, column index), so the first M columns are identical for every
expansion built from the same seed — sweeping M compares nested feature sets
rather than resampling everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError

ACTIVATIONS = ("relu", "identity", "tanh")


def _gaussian_columns(d: int, M: int, seed: int) -> np.ndarray:
    """Generate the d x M projection, one Philox stream per column.

    Column j is the first d normals of the stream keyed by (seed, j).  One
    generator serves every column: writing back its fresh state with the
    column's key restarts it exactly as a new generator with that key would
    start, without building a generator (and seeding it from OS entropy
    only to override it) per column.
    """
    bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bg)
    fresh = bg.state
    key = fresh["state"]["key"]
    cols = np.empty((M, d), dtype=np.float64)
    for j in range(M):
        key[1] = j
        bg.state = fresh
        gen.standard_normal(out=cols[j])
    return cols.T


class RandomExpansion:
    """Immutable random projection plus element-wise nonlinearity.

    Parameters
    ----------
    d : int
        Input embedding width.
    M : int
        Expansion width (number of random features).
    seed : int
        Nonnegative 64-bit key for the column generator.
    activation : str
        One of ``"relu"`` (default), ``"identity"``, ``"tanh"``.
    """

    def __init__(self, d: int, M: int, seed: int, activation: str = "relu"):
        if d <= 0 or M <= 0:
            raise ShapeError(f"d and M must be positive, got d={d}, M={M}")
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; choose from {ACTIVATIONS}"
            )
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.d = int(d)
        self.M = int(M)
        self.seed = int(seed)
        self.activation = activation
        self._weights = _gaussian_columns(self.d, self.M, self.seed)
        self._weights.setflags(write=False)

    @property
    def weights(self) -> np.ndarray:
        """The frozen d x M projection matrix (read-only view)."""
        return self._weights

    def __call__(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        squeeze = features.ndim == 1
        if squeeze:
            features = features[None, :]
        if features.shape[1] != self.d:
            raise ShapeError(
                f"feature width {features.shape[1]} does not match "
                f"expansion input width {self.d}"
            )
        z = features @ self._weights
        if self.activation == "relu":
            np.maximum(z, 0.0, out=z)
        elif self.activation == "tanh":
            np.tanh(z, out=z)
        return z[0] if squeeze else z


@dataclass
class ExpandedBatch:
    """A batch of expanded rows tagged with the expert active when produced."""

    values: np.ndarray  # B x M
    expert_id: int | None = None

    def rows(self, M: int, experts: int) -> np.ndarray:
        """The values as float64 rows, checked once for every router that
        folds them: ShapeError unless they are M wide, ValueError unless
        the expert id is one of 0..experts-1 (an empty batch too),
        NumericalError if a value is not finite."""
        phi = np.asarray(self.values, dtype=np.float64)
        if phi.ndim != 2 or phi.shape[1] != M:
            raise ShapeError(f"batch width {phi.shape[-1] if phi.ndim else '?'}"
                             f" does not match router width {M}")
        if self.expert_id is None or not 0 <= self.expert_id < experts:
            raise ValueError(f"expert id {self.expert_id!r} is not registered "
                             f"(have {experts} experts)")
        if not np.isfinite(phi).all():
            raise NumericalError("non-finite values in expanded batch")
        return phi
