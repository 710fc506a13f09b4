"""Continual-learning metric suite.

Everything derives from two records kept by the harness: the session accuracy
matrix R — R[i, j] is accuracy on session-j evaluation data measured right
after session i finished — and the anytime history a_s, accuracy on held-out
samples of all classes seen so far, recorded every eval_interval batches.

Final/average accuracy, forgetting, and backward transfer read the matrix;
the anytime mean summarizes the whole trajectory.  Routing accuracy counts a
prediction as correctly routed when the chosen expert trained on the true
class (a one-to-many correspondence: blurry classes have several correct
experts).  ``seed_metrics`` derives the suite of one seed; ``replay`` rebuilds
a seed's ledger and every metric its prediction log determines, for the
harness and the ``metrics`` command alike.  Linear CKA compares the experts'
residual representations on a shared probe set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


def _require_complete(row: np.ndarray, what: str) -> None:
    if np.isnan(row).any():
        raise ValueError(f"{what} incomplete: {row}")


def a_last(R: np.ndarray) -> float:
    """Mean of the final row: accuracy on every session after the last one."""
    R = np.asarray(R, dtype=np.float64)
    _require_complete(R[-1], "final session row")
    return float(R[-1].mean())


def a_avg(R: np.ndarray) -> float:
    """Mean of the diagonal: each session measured right after it ran."""
    R = np.asarray(R, dtype=np.float64)
    _require_complete(np.diag(R), "session diagonal")
    return float(np.diag(R).mean())


def f_last(R: np.ndarray) -> float:
    """Mean drop from each session's best recorded accuracy to its final one.

    The per-column max runs over all recorded rows including the last, so
    every term is >= 0.
    """
    R = np.asarray(R, dtype=np.float64)
    T = R.shape[0]
    _require_complete(R[-1], "final session row")
    drops = []
    for j in range(T):
        col = R[j:, j]  # rows i >= j are the recorded ones
        _require_complete(col, f"column {j}")
        drops.append(col.max() - R[-1, j])
    return float(np.mean(drops))


def bwt(R: np.ndarray) -> float:
    """Mean change on earlier sessions between their own row and the final row."""
    R = np.asarray(R, dtype=np.float64)
    T = R.shape[0]
    if T < 2:
        raise ValueError("backward transfer needs at least two sessions")
    _require_complete(R[-1], "final session row")
    _require_complete(np.diag(R), "session diagonal")
    return float(np.mean([R[-1, i] - R[i, i] for i in range(T - 1)]))


def a_auc(anytime) -> float:
    """Mean anytime accuracy over the recorded evaluation points."""
    anytime = np.asarray(anytime, dtype=np.float64)
    if anytime.size == 0:
        raise ValueError("anytime history is empty")
    return float(anytime.mean())


def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("prediction/label length mismatch")
    if predictions.size == 0:
        raise ValueError("empty evaluation pool")
    return float(np.mean(predictions == labels))


def session_row(predictions, labels, session_classes) -> list[float]:
    """Accuracy on the samples of each session's classes, in session order:
    one row of the session accuracy matrix."""
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    members = [np.isin(labels, sorted(classes)) for classes in session_classes]
    return [accuracy(predictions[m], labels[m]) for m in members]


def _routing_hits(selections, true_labels, history) -> int:
    """Rows routed to an expert that trained on the row's true class."""
    selections = np.asarray(selections, dtype=np.int64)
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if selections.shape != true_labels.shape:
        raise ValueError("selection/label length mismatch")
    return sum(1 for e, y in zip(selections, true_labels)
               if int(y) in history[int(e)])


def routing_accuracy(selections, true_labels, history) -> float:
    """Fraction routed to an expert that trained on the sample's true class."""
    return _routing_hits(selections, true_labels, history) / len(selections)


def seed_metrics(anytime, R, predictions, selections, labels,
                 history) -> dict[str, float]:
    """One seed's metric suite from its anytime history, its session matrix R
    and its final inference.  ``a_auc`` needs an anytime point; the matrix
    metrics need R's last row complete (``bwt`` two sessions too)."""
    metrics = {}
    if len(anytime):
        metrics["a_auc"] = a_auc(anytime)
    if not np.isnan(R[-1]).any():
        metrics["a_last"] = a_last(R)
        metrics["a_avg"] = a_avg(R)
        metrics["f_last"] = f_last(R)
        if len(R) >= 2:
            metrics["bwt"] = bwt(R)
    metrics["final_accuracy"] = accuracy(predictions, labels)
    metrics["routing_accuracy"] = routing_accuracy(selections, labels, history)
    return metrics


def adapter_cka(scales, probe: np.ndarray) -> np.ndarray:
    """Linear CKA of every pair of diagonal adapters (1 + a) * h + c, E x E.

    Centring drops c, so each pair follows from one d x d Gram C of the
    centred probe: CKA_ij = w_iᵀ S w_j / sqrt(w_iᵀ S w_i · w_jᵀ S w_j) with
    S = C∘C and w = a∘a.  ``einsum`` without ``optimize`` calls no BLAS, so
    the values do not depend on the BLAS thread count.  A zero residual
    gives NaN.
    """
    w = np.square(np.asarray(scales, dtype=np.float64))
    centred = probe - probe.mean(axis=0)
    gram = np.einsum("ni,nj->ij", centred, centred, optimize=False)
    sw = np.einsum("kl,jl->kj", gram * gram, w, optimize=False)
    forms = np.einsum("ik,kj->ij", w, sw, optimize=False)
    norms = np.sqrt(np.diag(forms))
    with np.errstate(invalid="ignore"):
        return forms / np.outer(norms, norms)


@dataclass
class MetricsLedger:
    """What a seed's evaluations recorded, as ``replay`` rebuilds it from
    the prediction log; metric functions read it frozen."""

    num_sessions: int
    session_matrix: np.ndarray = field(default=None)
    anytime: list = field(default_factory=list)
    routing_hits: int = 0
    routing_attempts: int = 0

    def __post_init__(self):
        if self.session_matrix is None:
            self.session_matrix = np.full(
                (self.num_sessions, self.num_sessions), np.nan)

    def record_routing(self, selections, true_labels, history) -> None:
        self.routing_attempts += len(selections)
        self.routing_hits += _routing_hits(selections, true_labels, history)

    @property
    def streamed_routing_accuracy(self) -> float:
        if self.routing_attempts == 0:
            raise ValueError("no routing attempts recorded")
        return self.routing_hits / self.routing_attempts


# The fields each phase of a prediction log carries that ``replay`` (or, for
# ``meta``, the reader of a log file) reads.
EVAL_FIELDS = {"anytime": ("labels", "predictions"),
               "session": ("labels", "predictions", "step"),
               "final": ("labels", "predictions", "selections"),
               "oracle": ("labels", "predictions")}
LOG_FIELDS = {"meta": ("seed", "session_classes", "history"), **EVAL_FIELDS}


def check_record(record, session_classes, experts: int,
                 fields=LOG_FIELDS) -> str:
    """The record's phase; ConfigError unless it is a JSON object whose
    phase ``fields`` lists, whose seed, for an evaluation record, has a meta
    record (``session_classes`` is then not None), and which carries each
    field ``fields`` names.  A meta record's seed must be an int and its
    ``session_classes`` and ``history`` lists of lists of ints.  An
    evaluation record's lists must be of one nonzero length and hold ints
    (not bools), a session ``step`` must lie in 0..sessions-1 and its labels
    hold a class of each session up to it, and each final selection must lie
    in 0..experts-1."""
    if not isinstance(record, dict) or "phase" not in record:
        raise ConfigError("not a record with a phase")
    phase = record["phase"]
    if not isinstance(phase, str) or phase not in fields:
        raise ConfigError(f"unexpected phase {phase!r}")
    if phase != "meta" and session_classes is None:
        raise ConfigError(f"seed {record.get('seed')} has no meta line")
    missing = [name for name in fields[phase] if name not in record]
    if missing:
        raise ConfigError(f"{phase} record lacks {', '.join(missing)}")
    if phase == "meta":
        if not _is_int(record["seed"]):
            raise ConfigError(f"meta record's seed {record['seed']!r} is not "
                              "an int")
        for name in ("session_classes", "history"):
            if not (isinstance(record[name], list) and all(
                    isinstance(v, list) and all(map(_is_int, v))
                    for v in record[name])):
                raise ConfigError(f"meta record's {name} is not a list of "
                                  "lists of ints")
        return phase
    lists = [name for name in fields[phase] if name != "step"]
    lengths = {len(record[name]) if isinstance(record[name], list) else 0
               for name in lists}
    if len(lengths) != 1 or 0 in lengths:
        raise ConfigError(f"{phase} record's {', '.join(lists)} are not "
                          "lists of one nonzero length")
    for name in lists:
        bad = [v for v in record[name] if not _is_int(v)]
        if bad:
            raise ConfigError(f"{phase} record's {name} hold {bad[0]!r}, "
                              "not an int")
    if phase == "session":
        step = record["step"]
        _check_indices("session step", [step], len(session_classes))
        labels = set(record["labels"])
        for j, classes in enumerate(session_classes[:step + 1]):
            if labels.isdisjoint(classes):
                raise ConfigError(f"session {step} record's labels hold no "
                                  f"class of session {j}")
    elif phase == "final":
        _check_indices("final selection", record["selections"], experts)
    return phase


def check_session_order(record, records, sessions: int) -> None:
    """ConfigError unless a session or final ``record`` keeps the order of
    its seed's log so far, ``records``: session steps run 0, 1, ... with
    none skipped, and a final record follows every session record or
    none."""
    logged = sum(r["phase"] == "session" for r in records)
    seed = record["seed"]
    if record["phase"] == "session" and record["step"] != logged:
        raise ConfigError(f"seed {seed}'s session record for step "
                          f"{record['step']} comes where session step "
                          f"{logged} is missing")
    if record["phase"] == "final" and 0 < logged < sessions:
        raise ConfigError(f"seed {seed}'s final record comes where session "
                          f"step {logged} is missing")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_indices(what: str, values: list, n: int) -> None:
    bad = [v for v in values if not (_is_int(v) and 0 <= v < n)]
    if bad:
        raise ConfigError(f"{what} {bad[0]!r} outside 0..{n - 1}")


def replay(records, session_classes, history) -> tuple[MetricsLedger, dict]:
    """A seed's ledger rebuilt from its logged evaluations, and every metric
    those records determine, in emission order: the ``seed_metrics`` suite,
    ``num_experts``, ``oracle_accuracy`` and, when the log holds session
    rows, ``oracle_a_last``.  Before the final record there are no metrics.
    """
    ledger = MetricsLedger(len(session_classes))
    final = oracle = None
    for record in records:
        phase = check_record(record, session_classes, len(history),
                             EVAL_FIELDS)
        predictions, labels = record["predictions"], record["labels"]
        if phase == "anytime":
            ledger.anytime.append(accuracy(predictions, labels))
        elif phase == "session":
            i = record["step"]
            ledger.session_matrix[i, :i + 1] = session_row(
                predictions, labels, session_classes[:i + 1])
        elif phase == "final":
            final = record
            ledger.record_routing(record["selections"], labels, history)
        else:
            oracle = record
    if final is None:
        return ledger, {}
    metrics = seed_metrics(ledger.anytime, ledger.session_matrix,
                           final["predictions"], final["selections"],
                           final["labels"], history)
    metrics["num_experts"] = float(len(history))
    if oracle is not None:
        metrics["oracle_accuracy"] = accuracy(oracle["predictions"],
                                              oracle["labels"])
        if not np.isnan(ledger.session_matrix).all():
            metrics["oracle_a_last"] = float(np.mean(session_row(
                oracle["predictions"], oracle["labels"], session_classes)))
    return ledger, metrics
