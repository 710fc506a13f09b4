"""Inference-time aggregation over the online head and an expert's EMA bank.

Every prediction runs the (adapted) features through head 0 — the shared
online head — and each shadow head of the selected expert's bank, then
combines the per-head outputs one of six ways.  The ``softmax_*`` variants
apply the masked softmax per head and combine probabilities element-wise;
the plain variants combine masked raw logits element-wise and softmax once.
``*min_entropy`` variants pick, per sample, the head whose masked softmax has
minimal Shannon entropy (nats, unmasked support only), ties to the online
head.  The two coincide: softmaxing the picked head's raw logits once gives
that head's masked softmax, so both names take the same branch.

The combined score vector is not necessarily a distribution (element-wise max
of softmaxes does not sum to 1); the predicted class is its argmax with
lowest-class tie-breaking, and masked classes — exact zeros everywhere — can
never win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .experts import EmaBank, ExpertAdapter, Head, LogitMask, masked_softmax

AGGREGATIONS = (
    "mean", "max_prob", "min_entropy",
    "softmax_mean", "softmax_max", "softmax_min_entropy",
)


@dataclass
class EnsembleConfig:
    aggregation: str = "softmax_max"

    def __post_init__(self):
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}; "
                f"choose from {AGGREGATIONS}"
            )


def _entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats per row; zero entries contribute 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=-1)


def ensemble_predict(features: np.ndarray, adapter: ExpertAdapter,
                     bank: EmaBank | None, online: Head, mask: LogitMask,
                     config: EnsembleConfig):
    """Predict a batch with one expert; returns (scores B x C, classes B).

    ``bank`` may be None or empty (online head only), in which case every
    aggregation degenerates to the plain masked softmax of the online head.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    heads = [online] + (list(bank.heads) if bank is not None else [])
    if mask.values.shape[0] != online.weights.shape[0]:
        raise ShapeError(
            f"mask length {mask.values.shape[0]} does not match "
            f"{online.weights.shape[0]} classes"
        )

    adapted = adapter.adapted(features)
    logits = np.stack([h.logits(adapted) for h in heads])   # J x B x C
    probs = np.stack([masked_softmax(l, mask.values) for l in logits])

    agg = config.aggregation
    if agg == "softmax_mean":
        scores = probs.mean(axis=0)
    elif agg == "softmax_max":
        scores = probs.max(axis=0)
    elif agg == "mean":
        scores = masked_softmax(logits.mean(axis=0), mask.values)
    elif agg == "max_prob":
        scores = masked_softmax(logits.max(axis=0), mask.values)
    else:  # min_entropy and softmax_min_entropy
        pick = np.argmin(_entropy(probs), axis=0)            # ties -> head 0
        scores = probs[pick, np.arange(features.shape[0])]

    return scores, np.argmax(scores, axis=1)


def full_inference(features: np.ndarray, selections: np.ndarray, pool,
                   mask: LogitMask, config: EnsembleConfig):
    """Ensemble-predict every row with the expert selected for it; returns
    (scores B x C, classes B) as ``ensemble_predict`` does."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    B = features.shape[0]
    if pool.num_experts < 1:
        raise ValueError("no experts have been spawned")
    if len(selections) != B:
        raise ShapeError(f"{len(selections)} selections for {B} rows")

    scores = np.empty((B, pool.num_classes))
    predictions = np.empty(B, dtype=np.int64)
    for expert_id in np.unique(selections):
        idx = np.nonzero(selections == expert_id)[0]
        scores[idx], predictions[idx] = ensemble_predict(
            features[idx], pool.adapters[expert_id], pool.banks[expert_id],
            pool.online, mask, config)
    return scores, predictions
