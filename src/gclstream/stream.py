"""Blurry-boundary stream construction over frozen features.

The label space splits into a *disjoint* subset — classes confined to a
single session — and a *blurry* subset, where each class has a home session
holding most of its samples while a fixed count (ceil of blurry_ratio times
the class's sample count) scatters uniformly over the other sessions.  The
stream is strictly single-pass: every training sample id is yielded exactly
once, in seeded shuffled order, sliced into consecutive batches per session.

Two feature sources implement the same contract: a synthetic Gaussian-
prototype backbone (class prototypes and per-sample noise reproducible from
the seed and sample id) and a loader for precomputed feature files, one
streaming ``loadtxt`` pass with a line walk that words each refusal, so real
embeddings can be plugged in later.

A fixed fraction of every class is held out before scheduling; held-out rows
never enter the stream and feed all evaluations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_fields

# SeedSequence purpose tags; every stochastic choice in the engine derives
# from (seed, tag, counters) so that no RNG state ever needs checkpointing.
TAG_STREAM = 11
TAG_DATA = 12


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class StreamConfig:
    num_classes: int = 20
    sessions: int = 5
    disjoint_ratio: float = 0.5
    blurry_ratio: float = 0.1
    batch_size: int = 64
    samples_per_class: int = 100
    eval_interval: int = 10
    seed: int = 1           # a run sets it to each of RunConfig.seeds
    d: int = 32
    cluster_spread: float = 1.0
    noise_scale: float = 0.3
    holdout_fraction: float = 0.2
    feature_file: str | None = None

    def __post_init__(self):
        check_fields(self, "stream.")
        if not 0.0 <= self.disjoint_ratio <= 1.0:
            raise ConfigError(f"disjoint_ratio outside [0,1]: {self.disjoint_ratio}")
        if not 0.0 <= self.blurry_ratio <= 1.0:
            raise ConfigError(f"blurry_ratio outside [0,1]: {self.blurry_ratio}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction outside [0,1): {self.holdout_fraction}")
        if min(self.num_classes, self.sessions, self.batch_size,
               self.samples_per_class, self.eval_interval, self.d) < 1:
            raise ConfigError("stream sizes must all be positive")


# ---------------------------------------------------------------------------
# feature sources
# ---------------------------------------------------------------------------

class FeatureSource:
    """Labelled feature rows addressed by sample id; a parsed feature file
    is one as it stands."""

    def __init__(self, d, num_classes, labels, X):
        self.d = d
        self.num_classes = num_classes
        self.labels = labels
        self._X = X

    def features(self, ids) -> np.ndarray:
        return self._X[np.asarray(ids, dtype=np.int64)]

    def class_ids(self) -> dict[int, np.ndarray]:
        return {c: np.nonzero(self.labels == c)[0]
                for c in range(self.num_classes)}


class SyntheticBackbone(FeatureSource):
    """Gaussian class prototypes plus per-sample noise, all seed-derived.

    Sample id i has label i // samples_per_class and features
    mu_label + noise_scale * eps_i, with prototypes and noise drawn once from
    the stream seed, so features depend only on (seed, sample id).
    """

    def __init__(self, config: StreamConfig):
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, TAG_DATA]))
        C, spc, d = config.num_classes, config.samples_per_class, config.d
        self.prototypes = config.cluster_spread * rng.standard_normal((C, d))
        labels = np.repeat(np.arange(C), spc)
        noise = rng.standard_normal((C * spc, d))
        super().__init__(d, C, labels,
                         self.prototypes[labels] + config.noise_scale * noise)


def load_feature_file(path) -> FeatureSource:
    """Parse ``d=<int> classes=<int> rows=<int>`` + ``label,f1,...,fd`` lines.

    The body is read in one streaming pass by numpy's C ``loadtxt`` reader,
    once per run (``harness.run`` hands the parsed source to every seed).
    A file that pass cannot read, or whose table fails a check (its shape
    against the header, every value finite, every label a class), is re-read
    line by line, so that its error names the byte offset of the offending
    line.  The accepted syntax is the line walk's: blank lines and
    whitespace around a line or a cell are skipped, and the fast pass never
    accepts a file the walk refuses, nor reads it to other bits.
    """
    try:
        source = _load_table(path)
    except (OSError, ValueError, Warning):  # the walk words the refusal
        source = None
    return source if source is not None else _walk(path)


def _header(path, line: bytes) -> tuple[int, int, int]:
    """``(d, classes, rows)`` of a header line; ConfigError if malformed."""
    parts = line.decode("ascii", errors="replace").split()
    fields = dict(p.split("=", 1) for p in parts if "=" in p)
    try:
        return int(fields["d"]), int(fields["classes"]), int(fields["rows"])
    except (KeyError, ValueError):
        raise _malformed(path, line) from None


def _malformed(path, line: bytes) -> ConfigError:
    header = line.decode("ascii", errors="replace").strip()
    return ConfigError(
        f"{path}: malformed header at byte 0: {header!r} "
        f"(expected 'd=<int> classes=<int> rows=<int>')")


# The bytes of a body the fast pass reads.  numpy's reader strips more than
# the walk around a cell (\x1c-\x1f, and latin-1 spaces such as \xa0) and
# splits a line at \r, so a body with any other byte goes to the walk.
_PLAIN = b"0123456789+-.eE, \t\n"


def _plain_lines(fh):
    for line in fh:
        if line.translate(None, _PLAIN):
            raise ValueError("a byte outside the fast pass's alphabet")
        yield line


def _load_table(path) -> FeatureSource | None:
    """The file's source from one ``loadtxt`` pass over its body, or None
    if the table fails a check the walk makes."""
    with open(path, "rb") as fh:
        d, num_classes, rows = _header(path, fh.readline())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body only warns
            table = np.loadtxt(_plain_lines(fh), delimiter=",",
                               comments=None, quotechar=None, ndmin=2,
                               converters={0: int})
    if table.shape != (rows, d + 1) or not np.isfinite(table).all():
        return None
    labels = table[:, 0]
    # a float64 holds every int below 2**53 exactly, and no larger one
    if not ((labels >= 0) & (labels < min(num_classes, 2 ** 53))).all():
        return None
    return FeatureSource(d, num_classes, labels.astype(np.int64),
                         table[:, 1:])


def _walk(path) -> FeatureSource:
    """One walk over the body: each line is a transient slice of the file's
    bytes, its label is read by ``int()`` and its ``d`` cells by one
    ``np.fromstring``.  Errors name the byte offset of the offending line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise ConfigError(f"{path}: unreadable feature file ({err})") from err
    if not raw or raw.isspace():
        raise ConfigError(f"{path}: empty feature file")
    newline = raw.find(b"\n")
    at = len(raw) + 1 if newline < 0 else newline + 1
    header = raw[:at - 1]
    d, num_classes, rows = _header(path, header)
    lines = raw.count(b"\n")
    if rows > lines:  # refused before its rows x d are allocated
        raise ConfigError(f"{path}: header declares {rows} rows, more than "
                          f"the file's {lines} lines")
    try:
        labels = np.empty(rows, dtype=np.int64)  # a negative size raises
        X = np.empty((rows, d), dtype=np.float64)
    except ValueError:
        raise _malformed(path, header) from None
    offsets = np.empty(rows, dtype=np.int64)
    row = 0
    with warnings.catch_warnings():
        # numpy < 2.3 warns, instead of raising, on a cell it cannot parse
        warnings.simplefilter("error", DeprecationWarning)
        while at < len(raw):
            end = raw.find(b"\n", at)
            end = len(raw) if end < 0 else end
            line = raw[at:end].strip()
            if line:
                if row >= rows:
                    raise ConfigError(f"{path}: more rows than the declared "
                                      f"{rows} at byte {at}")
                if (width := line.count(b",")) != d:
                    raise ConfigError(f"{path}: row width {width} != declared "
                                      f"d={d} at byte {at}")
                label, _, cells = line.partition(b",")
                try:
                    label = int(label)
                    values = np.fromstring(cells, sep=",")
                except (ValueError, DeprecationWarning):
                    values = None
                if values is None or values.size != d:
                    raise ConfigError(f"{path}: unparseable row at byte {at}")
                if not 0 <= label < num_classes:
                    raise ConfigError(
                        f"{path}: label {label} outside [0, {num_classes}) "
                        f"at byte {at}")
                labels[row] = label
                X[row] = values
                offsets[row] = at
                row += 1
            at = end + 1
    if row != rows:
        raise ConfigError(f"{path}: found {row} rows, header declared {rows}")
    if not np.isfinite(X).all():
        bad = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ConfigError(f"{path}: non-finite value in row {bad} at byte "
                          f"{offsets[bad]}")
    return FeatureSource(d, num_classes, labels, X)


def write_feature_file(path, source) -> None:
    """Emit a source's rows at 17 significant digits (lossless round-trip)."""
    labels = source.labels
    X = source.features(np.arange(len(labels)))
    with open(path, "w") as fh:
        fh.write(f"d={source.d} classes={source.num_classes} "
                 f"rows={len(labels)}\n")
        for label, row in zip(labels, X):
            fh.write(f"{int(label)},{','.join(f'{v:.17g}' for v in row)}\n")


# ---------------------------------------------------------------------------
# partition and schedule
# ---------------------------------------------------------------------------

def partition_classes(num_classes: int, sessions: int, disjoint_ratio: float,
                      rng: np.random.Generator):
    """Split classes into a session-assigned disjoint map and a blurry set.

    Disjoint classes are chosen uniformly and spread over sessions as evenly
    as possible (per-session counts differ by at most one).
    """
    n_disjoint = _round_half_up(disjoint_ratio * num_classes)
    chosen = rng.choice(num_classes, size=n_disjoint, replace=False)
    disjoint_map: dict[int, int] = {}
    base, extra = divmod(n_disjoint, sessions)
    pos = 0
    for t in range(sessions):
        take = base + (1 if t < extra else 0)
        for c in chosen[pos:pos + take]:
            disjoint_map[int(c)] = t
        pos += take
    blurry = sorted(set(range(num_classes)) - set(disjoint_map))
    return disjoint_map, blurry


@dataclass
class SessionSchedule:
    sessions: list                      # per-session sample-id arrays, stream order
    disjoint_map: dict
    blurry: list
    home: dict                          # class -> home session (all classes)
    holdout_by_class: dict              # class -> held-out sample ids
    session_classes: list               # per-session set of train classes
    batches: list                       # (ids, session, is_session_start)

    @property
    def session_sizes(self) -> list[int]:
        return [len(ids) for ids in self.sessions]

    @property
    def total_train(self) -> int:
        return sum(self.session_sizes)


def build_schedule(config: StreamConfig, source) -> SessionSchedule:
    """Holdout split, blurry scatter, per-session shuffles, batch slicing.

    All randomness comes from one generator seeded by (seed, TAG_STREAM),
    consumed in a fixed order (partition, then per-class splits ascending,
    then per-session shuffles), so equal configs give identical schedules.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, TAG_STREAM]))
    T = config.sessions
    disjoint_map, blurry = partition_classes(
        source.num_classes, T, config.disjoint_ratio, rng)

    per_class = source.class_ids()
    holdout_by_class: dict[int, np.ndarray] = {}
    train_by_class: dict[int, np.ndarray] = {}
    for c in range(source.num_classes):
        ids = per_class[c]
        n_hold = _round_half_up(config.holdout_fraction * len(ids))
        if config.holdout_fraction > 0 and n_hold == 0:
            raise ConfigError(
                f"class {c} has {len(ids)} samples — too few for a "
                f"{config.holdout_fraction:.0%} holdout")
        perm = rng.permutation(ids)
        holdout_by_class[c] = np.sort(perm[:n_hold])
        train_by_class[c] = perm[n_hold:]

    session_lists: list[list[int]] = [[] for _ in range(T)]
    home: dict[int, int] = dict(disjoint_map)
    for c, t in sorted(disjoint_map.items()):
        session_lists[t].extend(int(i) for i in train_by_class[c])
    for c in blurry:
        train = train_by_class[c]
        h = int(rng.integers(T))
        home[c] = h
        want = math.ceil(config.blurry_ratio * len(per_class[c]))
        k = 0 if T == 1 else min(want, len(train))
        for i in train[:k]:
            other = int(rng.integers(T - 1))
            if other >= h:
                other += 1
            session_lists[other].append(int(i))
        session_lists[h].extend(int(i) for i in train[k:])

    sessions = []
    session_classes = []
    for t in range(T):
        if not session_lists[t]:
            raise ConfigError(
                f"session {t} received no training samples; use more "
                f"classes/samples or fewer sessions")
        order = rng.permutation(np.array(session_lists[t], dtype=np.int64))
        sessions.append(order)
        session_classes.append(set(int(l) for l in source.labels[order]))

    batches = []
    for t, ids in enumerate(sessions):
        for start in range(0, len(ids), config.batch_size):
            batches.append((ids[start:start + config.batch_size], t,
                            start == 0))
    return SessionSchedule(
        sessions=sessions, disjoint_map=disjoint_map, blurry=blurry,
        home=home, holdout_by_class=holdout_by_class,
        session_classes=session_classes, batches=batches)


class StreamCursor:
    """Single-consumer batch iterator with checkpointable position."""

    def __init__(self, schedule: SessionSchedule, source):
        self.schedule = schedule
        self.source = source
        self.batch_index = 0

    def next_batch(self):
        """Yield (features, labels, ids, session, is_session_start) or None."""
        if self.batch_index >= len(self.schedule.batches):
            return None
        ids, session, is_start = self.schedule.batches[self.batch_index]
        self.batch_index += 1
        return (self.source.features(ids), self.source.labels[ids], ids,
                session, is_start)

    def skip_to(self, batch_index: int) -> None:
        if not 0 <= batch_index <= len(self.schedule.batches):
            raise ConfigError(
                f"batch index {batch_index} outside the schedule "
                f"({len(self.schedule.batches)} batches)")
        self.batch_index = batch_index


def build_stream(config: StreamConfig, source: FeatureSource | None = None):
    """Construct (source, schedule) for a config; file source if configured,
    whose header must give the config's ``d`` and ``num_classes``.  A run of
    several seeds passes the file's parsed ``source`` in, to read it once."""
    if config.feature_file:
        if source is None:
            source = load_feature_file(config.feature_file)
        header = (source.d, source.num_classes)
        if header != (config.d, config.num_classes):
            raise ConfigError(
                f"{config.feature_file}: header d={header[0]} "
                f"classes={header[1]}, but the stream config has "
                f"d={config.d} num_classes={config.num_classes}")
    else:
        source = SyntheticBackbone(config)
    return source, build_schedule(config, source)
