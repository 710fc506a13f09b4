"""Experts over frozen features: affine adapters, the shared online head,
logit masks, masked cross-entropy training, and EMA shadow-head banks.

An expert is a per-task affine feature modulation ``(1 + a) * h + c`` plus a
bank of exponential-moving-average copies of the shared linear head, one per
decay rate.  New experts warm-start from the element-wise mean of their
predecessors' adapters and clone their EMA heads from the online head at
spawn time; freezing an expert pins its adapter and bank forever.

Training is plain gradient descent on masked cross-entropy with exact
analytic gradients for all four parameter groups (W, b, a, c), so the update
can be verified coordinate-by-coordinate against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError

# Finite stand-in for -inf in logit masks. Added pre-softmax with
# max-subtraction, then masked probabilities are clamped to exactly 0.
MASK_NEG = -1e30

MASK_KINDS = ("none", "random", "seen_class", "batch_seen_class")


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass
class ExpertAdapter:
    """Diagonal scale + shift over frozen features: (1 + a) * h + c."""

    id: int
    scale: np.ndarray   # a, length d
    shift: np.ndarray   # c, length d
    frozen: bool = False

    def adapted(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        return (1.0 + self.scale) * features + self.shift

    def freeze(self) -> None:
        self.frozen = True
        self.scale.setflags(write=False)
        self.shift.setflags(write=False)


@dataclass
class Head:
    """Linear classifier head: logits(h) = h @ W.T + b."""

    weights: np.ndarray  # C x d
    bias: np.ndarray     # C

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.weights.T + self.bias

    def clone(self) -> "Head":
        return Head(self.weights.copy(), self.bias.copy())


def zero_head(num_classes: int, d: int) -> Head:
    return Head(np.zeros((num_classes, d)), np.zeros(num_classes))


class EmaBank:
    """One EMA shadow head per decay rate, for a single expert.

    Decays must be strictly increasing and lie in (0, 1); the effective
    averaging window of a head is L = 1 / (1 - alpha).
    """

    def __init__(self, decays, heads):
        decays = [float(a) for a in decays]
        if any(not 0.0 < a < 1.0 for a in decays):
            raise ValueError(f"decays must lie in (0,1), got {decays}")
        if any(b <= a for a, b in zip(decays, decays[1:])):
            raise ValueError(f"decays must be strictly increasing, got {decays}")
        if len(heads) != len(decays):
            raise ShapeError("one head per decay required")
        self.decays = decays
        self.heads = list(heads)

    @classmethod
    def from_online(cls, decays, online: Head) -> "EmaBank":
        return cls(decays, [online.clone() for _ in decays])


def ema_update(bank: EmaBank, online: Head) -> EmaBank:
    """Pull every shadow head toward the online head by its decay."""
    for alpha, head in zip(bank.decays, bank.heads):
        if head.weights.shape != online.weights.shape:
            raise ShapeError(
                f"shadow head shape {head.weights.shape} does not match "
                f"online head shape {online.weights.shape}"
            )
        head.weights *= alpha
        head.weights += (1.0 - alpha) * online.weights
        head.bias *= alpha
        head.bias += (1.0 - alpha) * online.bias
    return bank


# ---------------------------------------------------------------------------
# logit masks and masked softmax
# ---------------------------------------------------------------------------

@dataclass
class LogitMask:
    """Additive {0, -inf} vector confining the softmax support."""

    values: np.ndarray
    kind: str

    @property
    def unmasked(self) -> np.ndarray:
        return self.values > MASK_NEG / 2


def build_mask(batch_labels, seen, kind: str, num_classes: int,
               rng: np.random.Generator | None = None) -> LogitMask:
    """Build the additive mask for one training batch.

    kinds: ``none`` — all zeros; ``seen_class`` — zero on every seen class;
    ``batch_seen_class`` — zero exactly on the batch's classes; ``random`` —
    zero on the batch's classes, other seen classes kept or masked by a fair
    coin, unseen always masked.
    """
    if kind not in MASK_KINDS:
        raise ValueError(f"unknown mask kind {kind!r}; choose from {MASK_KINDS}")
    batch_labels = set(int(c) for c in batch_labels)
    seen = set(int(c) for c in seen)
    for label in batch_labels | seen:
        if not 0 <= label < num_classes:
            raise ValueError(f"class id {label} outside [0, {num_classes})")
    if not batch_labels <= seen:
        raise ValueError("batch labels must already be in the seen set")

    values = np.full(num_classes, MASK_NEG, dtype=np.float64)
    if kind == "none":
        values[:] = 0.0
    elif kind == "seen_class":
        values[sorted(seen)] = 0.0
    elif kind == "batch_seen_class":
        values[sorted(batch_labels)] = 0.0
    else:  # random
        if rng is None:
            raise ValueError("random mask kind needs an rng")
        values[sorted(batch_labels)] = 0.0
        for c in sorted(seen - batch_labels):
            if rng.random() < 0.5:
                values[c] = 0.0
    return LogitMask(values, kind)


def masked_softmax(logits: np.ndarray, mask_values: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the unmasked support; masked entries exactly 0."""
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64)) + mask_values
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p[:, mask_values <= MASK_NEG / 2] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    return p if np.ndim(logits) > 1 else p[0]


def masked_ce_loss(logits: np.ndarray, mask: LogitMask, label: int) -> float:
    """-log softmax(logits + m)[label]; the label must be unmasked."""
    if mask.values[label] <= MASK_NEG / 2:
        raise ValueError(f"label {label} is masked; loss would be -log 0")
    z = np.asarray(logits, dtype=np.float64) + mask.values
    zmax = z.max()
    return float(np.log(np.exp(z - zmax).sum()) - (z[label] - zmax))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _mean_masked_ce(logits, mask, labels):
    """Mean masked CE over a batch of logit rows."""
    zm = logits + mask.values
    zmax = zm.max(axis=1)
    return float(np.mean(
        np.log(np.exp(zm - zmax[:, None]).sum(axis=1))
        - (zm[np.arange(len(labels)), labels] - zmax)
    ))


def _forward_backward(adapter, head, features, labels, mask):
    """Logits and the gradients of the batch's mean masked CE for
    (W, b, a, c)."""
    B = features.shape[0]
    adapted = adapter.adapted(features)
    logits = head.logits(adapted)
    probs = masked_softmax(logits, mask.values)

    dz = probs.copy()
    dz[np.arange(B), labels] -= 1.0
    dz /= B
    grad_w = dz.T @ adapted
    grad_b = dz.sum(axis=0)
    dadapted = dz @ head.weights
    grad_a = (dadapted * features).sum(axis=0)
    grad_c = dadapted.sum(axis=0)
    return logits, grad_w, grad_b, grad_a, grad_c


def train_step(adapter: ExpertAdapter, online: Head, features: np.ndarray,
               labels: np.ndarray, mask: LogitMask, lr: float, iters: int,
               bank: EmaBank | None = None) -> float:
    """Run ``iters`` GD steps on mean masked CE; EMA-update after each step.

    Updates W, b (online head) and a, c (adapter) in place with simultaneous
    analytic gradients; returns the loss before the first step.
    """
    if adapter.frozen:
        raise ValueError(f"expert {adapter.id} is frozen; cannot train")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"batch size {features.shape[0]} does not match "
            f"label count {labels.shape[0]}"
        )
    if not np.isfinite(features).all():
        raise NumericalError("non-finite features; step aborted")
    if np.any(mask.values[labels] <= MASK_NEG / 2):
        raise ValueError("some batch labels are masked")

    for k in range(iters):
        logits, gw, gb, ga, gc = _forward_backward(
            adapter, online, features, labels, mask
        )
        if k == 0:
            first_loss = _mean_masked_ce(logits, mask, labels)
        if not all(np.isfinite(g).all() for g in (gw, gb, ga, gc)):
            raise NumericalError("non-finite gradient; step aborted")
        online.weights -= lr * gw
        online.bias -= lr * gb
        adapter.scale -= lr * ga
        adapter.shift -= lr * gc
        if bank is not None:
            ema_update(bank, online)
    return first_loss


def warm_start(existing, d: int | None = None,
               rng: np.random.Generator | None = None,
               expert_id: int = 0) -> ExpertAdapter:
    """Mean of prior adapters, or a small random adapter if there are none."""
    if existing:
        scale = np.mean([e.scale for e in existing], axis=0)
        shift = np.mean([e.shift for e in existing], axis=0)
        return ExpertAdapter(expert_id, scale, shift)
    if d is None or rng is None:
        raise ValueError("first expert needs d and an rng for random init")
    return ExpertAdapter(
        expert_id,
        rng.uniform(-0.01, 0.01, size=d),
        rng.uniform(-0.01, 0.01, size=d),
    )


# ---------------------------------------------------------------------------
# the expert pool and spawn policies
# ---------------------------------------------------------------------------

SPAWN_POLICIES = ("session_aligned", "sample_budget")


class ExpertPool:
    """All adapters + banks, the shared online head, and spawn bookkeeping.

    ``trained_classes[e]`` records which class ids expert e saw during its
    active window — the one-to-many ground truth used by routing-accuracy
    metrics and the oracle router.
    """

    def __init__(self, d: int, num_classes: int, decays, rng,
                 reset_head_at_spawn: bool = False):
        self.d = d
        self.num_classes = num_classes
        self.decays = list(decays)
        self.online = zero_head(num_classes, d)
        self.adapters: list[ExpertAdapter] = []
        self.banks: list[EmaBank] = []
        self.trained_classes: list[set] = []
        self.samples_under_current = 0
        self.reset_head_at_spawn = reset_head_at_spawn
        self._rng = rng

    @property
    def num_experts(self) -> int:
        return len(self.adapters)

    @property
    def current(self) -> int:
        return len(self.adapters) - 1

    def spawn(self) -> int:
        """Freeze the active expert (if any) and start a fresh one."""
        if self.adapters:
            self.adapters[-1].freeze()
        new_id = len(self.adapters)
        self.adapters.append(
            warm_start(self.adapters, self.d, self._rng, expert_id=new_id)
        )
        if self.reset_head_at_spawn and new_id > 0:
            self.online = zero_head(self.num_classes, self.d)
        self.banks.append(EmaBank.from_online(self.decays, self.online))
        self.trained_classes.append(set())
        self.samples_under_current = 0
        return new_id

    def should_spawn(self, policy: str, is_session_start: bool,
                     budget: int | None = None) -> bool:
        """Decide, before a batch, whether a new expert must take over."""
        if policy not in SPAWN_POLICIES:
            raise ValueError(
                f"unknown spawn policy {policy!r}; choose from {SPAWN_POLICIES}"
            )
        if not self.adapters:
            return True
        if policy == "session_aligned":
            return is_session_start
        if budget is None or budget <= 0:
            raise ValueError("sample_budget policy needs a positive budget")
        return self.samples_under_current >= budget

    def observe(self, labels) -> None:
        """Record a trained batch under the active expert."""
        self.trained_classes[-1].update(int(c) for c in labels)
        self.samples_under_current += len(labels)
