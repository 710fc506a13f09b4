"""Independent reference implementations the test suite checks against.

Everything here is written the slow, obvious way — dense solves, explicit
Python loops, cumulative sums — and never calls into the package, so that
agreement between an oracle and the streaming implementation is evidence of
correctness rather than a shared bug.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# ridge regression
# ---------------------------------------------------------------------------

def one_hot(labels, width: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), width))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def batch_ridge(phi: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """(Phi^T Phi + lam I)^{-1} Phi^T Y from the fully retained design matrix.

    Returns U with one row per target column, matching the router layout.
    """
    M = phi.shape[1]
    lhs = phi.T @ phi + lam * np.eye(M)
    rhs = phi.T @ targets
    return np.linalg.solve(lhs, rhs).T


def router_gram_ref(state) -> np.ndarray:
    """The full symmetric G = Phi^T Phi a router state stands for: the
    product of its stored rows while it has seen at most M of them, else its
    lower triangle mirrored (each entry the stored one plus 0.0)."""
    n, M = state.samples_seen, state.gram.shape[0]
    if n <= M:
        rows = state.gram[:, :n]
        return rows @ rows.T
    return np.tril(state.gram) + np.tril(state.gram, -1).T


# ---------------------------------------------------------------------------
# the random expansion, one generator per column
# ---------------------------------------------------------------------------

def gaussian_columns_ref(d: int, M: int, seed: int) -> np.ndarray:
    """The d x M projection with a new Philox generator keyed by
    (seed, j) built for every column j."""
    W = np.empty((d, M))
    for j in range(M):
        key = np.array([seed, j], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        W[:, j] = gen.standard_normal(d)
    return W


# ---------------------------------------------------------------------------
# gradients by central finite differences
# ---------------------------------------------------------------------------

def fd_gradient(loss_fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array.

    ``loss_fn`` must read the array in place (it is perturbed and restored
    entry by entry).
    """
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# softmax and cross-entropy, the direct way
# ---------------------------------------------------------------------------

def softmax_ref(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def masked_ce_ref(logits, mask_values, label: int) -> float:
    """-log of the label's probability under a softmax restricted to the
    unmasked support, computed by literally dropping masked entries."""
    logits = np.asarray(logits, dtype=np.float64)
    mask_values = np.asarray(mask_values, dtype=np.float64)
    keep = np.nonzero(mask_values > -1e29)[0]
    sub = softmax_ref(logits[keep])
    pos = int(np.nonzero(keep == label)[0][0])
    return float(-math.log(sub[pos]))


def entropy_ref(probs) -> float:
    """Shannon entropy in nats with 0 log 0 = 0, by explicit loop."""
    total = 0.0
    for p in np.asarray(probs, dtype=np.float64).ravel():
        if p > 0.0:
            total -= p * math.log(p)
    return total


# ---------------------------------------------------------------------------
# session-matrix metrics by explicit loops
# ---------------------------------------------------------------------------

def session_metrics_ref(R: np.ndarray) -> dict:
    """a_last / a_avg / f_last / bwt from first principles (Python loops)."""
    R = np.asarray(R, dtype=np.float64)
    T = R.shape[0]
    out = {
        "a_last": sum(R[T - 1][j] for j in range(T)) / T,
        "a_avg": sum(R[i][i] for i in range(T)) / T,
    }
    drops = []
    for j in range(T):
        best = max(R[i][j] for i in range(j, T))
        drops.append(best - R[T - 1][j])
    out["f_last"] = sum(drops) / T
    if T >= 2:
        out["bwt"] = sum(R[T - 1][i] - R[i][i] for i in range(T - 1)) / (T - 1)
    return out


def accuracy_ref(predictions, labels) -> float:
    predictions = list(predictions)
    labels = list(labels)
    hits = sum(1 for p, y in zip(predictions, labels) if p == y)
    return hits / len(labels)


def routing_accuracy_ref(selections, labels, history) -> float:
    hits = sum(1 for e, y in zip(selections, labels)
               if int(y) in history[int(e)])
    return hits / len(list(selections))


# ---------------------------------------------------------------------------
# EMA and moving-average tracking
# ---------------------------------------------------------------------------

def ema_path(values, alpha: float, init) -> list:
    """The EMA recursion s <- alpha*s + (1-alpha)*v, one entry per step."""
    state = np.array(init, dtype=np.float64)
    path = []
    for v in values:
        state = alpha * state + (1.0 - alpha) * np.asarray(v, dtype=np.float64)
        path.append(state.copy())
    return path


def boxcar_mse(online_seq: np.ndarray, truth: np.ndarray, window: int) -> float:
    """Tracking MSE of a trailing moving average of fixed window length.

    The window is truncated at the start of the sequence so the estimate is
    always the mean of the last ``min(window, t+1)`` observations.
    """
    steps = online_seq.shape[0]
    total = 0.0
    for t in range(steps):
        lo = max(0, t - window + 1)
        est = online_seq[lo:t + 1].mean(axis=0)
        total += float(np.mean((est - truth[t]) ** 2))
    return total / steps


# ---------------------------------------------------------------------------
# streaming statistics, recomputed the two-pass way
# ---------------------------------------------------------------------------

def two_pass_moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, population variance) computed directly from retained rows."""
    rows = np.asarray(rows, dtype=np.float64)
    mean = rows.sum(axis=0) / len(rows)
    var = ((rows - mean) ** 2).sum(axis=0) / len(rows)
    return mean, var


# ---------------------------------------------------------------------------
# Lloyd's k-means, every iteration run
# ---------------------------------------------------------------------------

def lloyd_ref(rows: np.ndarray, centers: np.ndarray,
              iters: int = 25) -> np.ndarray:
    """Exactly ``iters`` Lloyd iterations from the given centres, no early
    exit: one-shot broadcast distances, argmin to the lowest index on ties,
    each centre moved to its members' mean, an empty cluster left in place."""
    rows = np.asarray(rows, dtype=np.float64)
    centers = np.array(centers, dtype=np.float64)
    for _ in range(iters):
        d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        for j in range(len(centers)):
            members = rows[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return centers


# ---------------------------------------------------------------------------
# the shallow gating network, every gradient in a fresh array
# ---------------------------------------------------------------------------

def shallow_update_ref(params, e: int, phi: np.ndarray, lr: float,
                       iters: int, scales) -> tuple:
    """``iters`` softmax cross-entropy steps towards expert ``e`` on one
    batch, in the arithmetic and order of the streaming router but with no
    array reused; takes (W1, b1, W2, b2) without touching the inputs.

    Returns the stepped parameters and their scales: each entry of
    ``scales`` (pass the parameters before the first batch) in magnitude,
    plus the magnitude of every term the steps add into that entry.  Rounding
    errors follow these scales even where the terms cancel to a small
    result."""
    W1, b1, W2, b2 = (np.array(p, dtype=np.float64) for p in params)
    sW1, sb1, sW2, sb2 = (np.abs(np.asarray(s, dtype=np.float64))
                          for s in scales)
    B = phi.shape[0]
    for _ in range(iters):
        z1 = phi @ W1.T + b1
        a1 = np.maximum(z1, 0.0)
        logits = a1 @ W2.T + b2
        logits = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p = p / p.sum(axis=1, keepdims=True)
        p[:, e] -= 1.0
        dlogits = p / B
        dz1 = (dlogits @ W2) * (z1 > 0.0)
        mdz1 = (np.abs(dlogits) @ np.abs(W2)) * (z1 > 0.0)
        W2 = W2 - lr * (dlogits.T @ a1)
        b2 = b2 - lr * dlogits.sum(axis=0)
        W1 = W1 - lr * (dz1.T @ phi)
        b1 = b1 - lr * dz1.sum(axis=0)
        sW2 = sW2 + lr * (np.abs(dlogits).T @ a1)
        sb2 = sb2 + lr * np.abs(dlogits).sum(axis=0)
        sW1 = sW1 + lr * (mdz1.T @ np.abs(phi))
        sb1 = sb1 + lr * mdz1.sum(axis=0)
    return (W1, b1, W2, b2), (sW1, sb1, sW2, sb2)


def shallow_update_kernel_ref(params, e: int, phi: np.ndarray, lr: float,
                              iters: int) -> tuple:
    """The same ``iters`` steps in kernel form, in the arithmetic and order
    of the streaming router but with no array reused: the pre-activation
    steps through K = phi phi^T as z1 - lr K dz1 - lr gb1, and W1 takes one
    step by the summed gradient (lr sum dz1)^T phi at the end."""
    W1, b1, W2, b2 = (np.array(p, dtype=np.float64) for p in params)
    B = phi.shape[0]
    K = phi @ phi.T
    z1 = phi @ W1.T + b1
    dz_sum = np.zeros_like(z1)
    for k in range(iters):
        a1 = np.maximum(z1, 0.0)
        logits = a1 @ W2.T + b2
        logits = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p = p / p.sum(axis=1, keepdims=True)
        p[:, e] -= 1.0
        dlogits = p / B
        dz1 = (dlogits @ W2) * (z1 > 0.0)
        gb1 = dz1.sum(axis=0)
        W2 = W2 - lr * (dlogits.T @ a1)
        b2 = b2 - lr * dlogits.sum(axis=0)
        b1 = b1 - lr * gb1
        dz_sum = dz_sum + dz1
        z1 = z1 - lr * (K @ dz1) - lr * gb1
    W1 = W1 - (lr * dz_sum).T @ phi
    return W1, b1, W2, b2


# ---------------------------------------------------------------------------
# linear CKA through double-centered Gram matrices
# ---------------------------------------------------------------------------

def cka_gram_ref(Z_a: np.ndarray, Z_b: np.ndarray) -> float:
    """Linear CKA via HSIC on N x N Gram matrices (the textbook route)."""
    Z_a = np.asarray(Z_a, dtype=np.float64)
    Z_b = np.asarray(Z_b, dtype=np.float64)
    n = Z_a.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    Ka = H @ (Z_a @ Z_a.T) @ H
    Kb = H @ (Z_b @ Z_b.T) @ H
    cross = np.trace(Ka @ Kb)
    return float(cross / math.sqrt(np.trace(Ka @ Ka) * np.trace(Kb @ Kb)))


# ---------------------------------------------------------------------------
# stream bookkeeping
# ---------------------------------------------------------------------------

def expected_scatter(blurry_ratio: float, class_total: int, train_size: int,
                     sessions: int) -> int:
    """Samples of one blurry class placed outside its home session."""
    if sessions == 1:
        return 0
    return min(math.ceil(blurry_ratio * class_total), train_size)


def round_half_up_ref(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# feature files, read one cell at a time
# ---------------------------------------------------------------------------

def feature_file_ref(path) -> tuple[np.ndarray, np.ndarray]:
    """(labels, X) of a well-formed feature file: the header skipped, every
    non-blank line split at its commas, the label read by ``int()`` and each
    cell by ``float()``."""
    with open(path) as fh:
        lines = fh.read().split("\n")[1:]
    rows = [line.strip().split(",") for line in lines if line.strip()]
    labels = np.array([int(row[0]) for row in rows], dtype=np.int64)
    X = np.array([[float(v) for v in row[1:]] for row in rows],
                 dtype=np.float64)
    return labels, X
