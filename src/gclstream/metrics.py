"""Continual-learning metric suite.

Everything derives from two records kept by the harness: the session accuracy
matrix R — R[i, j] is accuracy on session-j evaluation data measured right
after session i finished — and the anytime history a_s, accuracy on held-out
samples of all classes seen so far, recorded every eval_interval batches.

Final/average accuracy, forgetting, and backward transfer read the matrix;
the anytime mean summarizes the whole trajectory.  Routing accuracy counts a
prediction as correctly routed when the chosen expert trained on the true
class (a one-to-many correspondence: blurry classes have several correct
experts).  ``seed_metrics`` derives the suite of one seed.  The harness logs,
and ``check_log`` checks in a log file, the records ``expected_records``
defines; ``replay`` rebuilds a seed's ledger and every metric the log
determines, for the harness and the ``metrics`` command alike.  Linear CKA
compares the experts' residual representations on a shared probe set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge
from itertools import accumulate, chain, groupby

import numpy as np

from .errors import ConfigError, has_type


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
    predictions, labels = np.asarray(predictions), np.asarray(labels)
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
    return sum(int(y) in history[int(e)]
               for e, y in zip(selections, true_labels, strict=True))


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


# Each phase's fields and their types as ``errors.has_type`` reads them (a
# JSON list is a tuple); a record's int lists share one nonzero length.
_INTS, _INT_LISTS = "tuple[int, ...]", "tuple[tuple[int, ...], ...]"
RECORD_FIELDS = {
    "meta": {"seed": "int", "session_classes": _INT_LISTS,
             "history": _INT_LISTS, "eval_interval": "int",
             "session_batches": _INTS, "session_records": "bool",
             "oracle_record": "bool", "logged": "bool"},
    "anytime": {"step": "int", "labels": _INTS, "predictions": _INTS},
    "session": {"step": "int", "labels": _INTS, "predictions": _INTS},
    "final": {"labels": _INTS, "predictions": _INTS, "selections": _INTS},
    "oracle": {"labels": _INTS, "predictions": _INTS},
}


def _check_fields(record) -> str:
    """The record's phase; ConfigError unless it is a JSON object with a
    phase of RECORD_FIELDS and every field of that phase, typed."""
    if not isinstance(record, dict) or "phase" not in record:
        raise ConfigError("not a record with a phase")
    phase = record["phase"]
    if not isinstance(phase, str) or phase not in RECORD_FIELDS:
        raise ConfigError(f"unexpected phase {phase!r}")
    types = RECORD_FIELDS[phase]
    missing = [name for name in types if name not in record]
    if missing:
        raise ConfigError(f"{phase} record lacks {', '.join(missing)}")
    for name, kind in types.items():
        if not has_type(record[name], kind):
            raise ConfigError(f"{phase} record's {name} does not have type "
                              f"{kind}")
    lists = [name for name, kind in types.items() if kind == _INTS]
    if len({len(record[name]) for name in lists}) > 1 or not record[lists[0]]:
        raise ConfigError(f"{phase} record's {', '.join(lists)} are not of "
                          "one nonzero length")
    return phase


def expected_records(meta, done: int) -> list[tuple[str, int | None]]:
    """The (phase, step) of each record a seed logs when its ``done``-th
    batch has run: anytime every eval_interval batches, session at a session
    end if the meta line says so, final and maybe oracle after the last."""
    interval, counts = meta["eval_interval"], meta["session_batches"]
    records = [("anytime", done // interval)] if done % interval == 0 else []
    if meta["session_records"]:
        records += [("session", j) for j, end in enumerate(
            accumulate(counts)) if end == done]
    if done == sum(counts):
        records.append(("final", None))
        if meta["oracle_record"]:
            records.append(("oracle", None))
    return records


def log_sequence(meta):
    """Lazily, the (phase, step) of each record of a seed's block in a log
    file: the ``expected_records`` of every batch where one may fall."""
    if not meta["logged"]:
        return
    ends = list(accumulate(meta["session_batches"]))
    interval = meta["eval_interval"]
    for batch, _ in groupby(merge(range(interval, ends[-1] + 1, interval),
                                  ends)):
        yield from expected_records(meta, batch)


def record_name(record) -> str:
    """A (phase, step) pair as the refusals name it, None as no record."""
    phase, step = record or ("no", None)
    return f"{phase} record" + ("" if step is None else f" {step}")


def check_log(records, where) -> dict:
    """A log file's blocks, seed -> (meta line, records): a block per seed,
    its meta line and then exactly the records ``log_sequence`` gives.
    ConfigError, prefixed by ``where(i)``, at the i-th record refused, or
    at ``where(len(records))``."""
    blocks, opened, due = {}, None, None
    try:
        for count, record in enumerate(chain(records, [None])):
            phase = None if record is None else _check_fields(record)
            if phase in (None, "meta") and due is not None:
                raise ConfigError(f"seed {opened['seed']}'s "
                                  f"{record_name(due)} is missing")
            if phase is None:
                break
            if phase == "meta":
                seed, counts = record["seed"], record["session_batches"]
                if seed in blocks:
                    raise ConfigError(f"seed {seed} has a second meta line")
                if len(counts) != len(record["session_classes"]) or min(
                        *counts, record["eval_interval"]) < 1:
                    raise ConfigError(f"seed {seed}'s eval_interval and "
                                      "session_batches are not positive "
                                      "counts, one per session")
                opened, sequence = record, log_sequence(record)
                blocks[seed], due = (record, []), next(sequence, None)
                continue
            seed, got = record.get("seed"), (phase, record.get("step"))
            if opened is None or seed != opened["seed"]:
                raise ConfigError(f"seed {seed!r}'s {record_name(got)} is "
                                  "outside that seed's block")
            if got != due:
                raise ConfigError(f"seed {seed}'s {record_name(got)} comes "
                                  f"where {record_name(due)} is due")
            if phase == "session":
                labels, step = set(record["labels"]), got[1]
                for j, classes in enumerate(opened["session_classes"]):
                    if j <= step and labels.isdisjoint(classes):
                        raise ConfigError(f"session {step} record's labels "
                                          f"hold no class of session {j}")
            if phase == "final":
                experts = len(opened["history"])
                bad = [e for e in record["selections"] if not 0 <= e < experts]
                if bad:
                    raise ConfigError(f"final selection {bad[0]} outside "
                                      f"0..{experts - 1}")
            blocks[seed][1].append(record)
            due = next(sequence, None)
    except ConfigError as err:
        raise ConfigError(f"{where(count)}: {err}") from err
    return blocks


def replay(records, meta) -> tuple[MetricsLedger, dict]:
    """A seed's ledger rebuilt from its logged evaluations, read against its
    meta line, and every metric those records determine, in emission order:
    the ``seed_metrics`` suite, ``num_experts``, ``oracle_accuracy`` and,
    when the log holds session rows, ``oracle_a_last``.  Before the final
    record there are no metrics."""
    session_classes, history = meta["session_classes"], meta["history"]
    ledger = MetricsLedger(len(session_classes))
    final = oracle = None
    for record in records:
        phase = record["phase"]
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
