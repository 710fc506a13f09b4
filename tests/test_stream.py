"""Blurry-boundary stream: partition, scatter, holdout, batching, file IO."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclstream.errors import ConfigError
from gclstream.stream import (
    StreamConfig, SyntheticBackbone, build_schedule, build_stream,
    load_feature_file, partition_classes, write_feature_file, StreamCursor,
    _load_table, _walk,
)

from oracles import expected_scatter, feature_file_ref, round_half_up_ref


def _tiny(**overrides):
    base = dict(num_classes=8, sessions=3, samples_per_class=20,
                batch_size=8, d=4, seed=1)
    base.update(overrides)
    return StreamConfig(**base)


class TestPartition:
    def test_half_ratio_splits_evenly(self):
        rng = np.random.default_rng(0)
        disjoint_map, blurry = partition_classes(20, 5, 0.5, rng)
        assert len(disjoint_map) == 10
        assert len(blurry) == 10
        assert set(disjoint_map) | set(blurry) == set(range(20))
        assert set(disjoint_map).isdisjoint(blurry)

    def test_disjoint_count_rounds_half_up(self):
        rng = np.random.default_rng(0)
        for C, ratio in ((7, 0.5), (5, 0.3), (9, 0.5), (10, 0.55)):
            disjoint_map, _ = partition_classes(C, 2, ratio, rng)
            assert len(disjoint_map) == round_half_up_ref(ratio * C)

    def test_extreme_ratios(self):
        rng = np.random.default_rng(1)
        all_dis, none_blur = partition_classes(6, 2, 1.0, rng)
        assert len(all_dis) == 6 and none_blur == []
        no_dis, all_blur = partition_classes(6, 2, 0.0, rng)
        assert no_dis == {} and all_blur == list(range(6))

    def test_session_loads_differ_by_at_most_one(self):
        rng = np.random.default_rng(2)
        disjoint_map, _ = partition_classes(23, 5, 1.0, rng)
        counts = np.bincount(list(disjoint_map.values()), minlength=5)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 23


class TestSchedule:
    def test_holdout_fraction_and_train_sizes(self):
        config = _tiny(holdout_fraction=0.2)
        source = SyntheticBackbone(config)
        schedule = build_schedule(config, source)
        for c in range(config.num_classes):
            assert len(schedule.holdout_by_class[c]) == 4  # 20% of 20
        assert schedule.total_train == config.num_classes * 16

    def test_single_pass_covers_every_training_sample_once(self):
        config = _tiny()
        source = SyntheticBackbone(config)
        schedule = build_schedule(config, source)
        seen = np.concatenate([ids for ids, _, _ in schedule.batches])
        assert len(seen) == len(set(seen.tolist())) == schedule.total_train
        holdout = np.concatenate(list(schedule.holdout_by_class.values()))
        assert set(seen.tolist()).isdisjoint(holdout.tolist())

    def test_disjoint_classes_are_confined_to_their_home_session(self):
        config = _tiny(num_classes=10, disjoint_ratio=1.0)
        source = SyntheticBackbone(config)
        schedule = build_schedule(config, source)
        for t, ids in enumerate(schedule.sessions):
            for label in np.unique(source.labels[ids]):
                assert schedule.disjoint_map[int(label)] == t

    @staticmethod
    def _scatter(config):
        """Each blurry class's streamed rows outside its home session, and
        the count the scatter rule gives; checks the session count too."""
        source = SyntheticBackbone(config)
        schedule = build_schedule(config, source)
        assert len(schedule.sessions) == config.sessions
        outside = {c: 0 for c in schedule.blurry}
        for t, ids in enumerate(schedule.sessions):
            for label in source.labels[ids]:
                if schedule.home[int(label)] != t:
                    outside[int(label)] += 1
        return outside, expected_scatter(config.blurry_ratio,
                                         config.samples_per_class, 16,
                                         config.sessions)

    def test_blurry_scatter_counts_are_exact(self):
        outside, want = self._scatter(
            _tiny(num_classes=10, disjoint_ratio=0.0, blurry_ratio=0.3))
        assert want > 0 and set(outside.values()) == {want}

    def test_zero_blurry_ratio_confines_every_class(self):
        # seed 2: every session draws at least one home class
        config = _tiny(disjoint_ratio=0.0, blurry_ratio=0.0, seed=2)
        source = SyntheticBackbone(config)
        schedule = build_schedule(config, source)
        for t, ids in enumerate(schedule.sessions):
            for label in np.unique(source.labels[ids]):
                assert schedule.home[int(label)] == t

    def test_single_session_never_scatters(self):
        outside, want = self._scatter(
            _tiny(sessions=1, blurry_ratio=0.9, disjoint_ratio=0.0))
        assert want == 0 and set(outside.values()) == {0}

    def test_batches_are_session_ordered_with_start_flags(self):
        config = _tiny()
        source = SyntheticBackbone(config)
        schedule = build_schedule(config, source)
        sessions = [t for _, t, _ in schedule.batches]
        assert sessions == sorted(sessions)
        starts = [i for i, (_, _, s) in enumerate(schedule.batches) if s]
        firsts = [sessions.index(t) for t in range(config.sessions)]
        assert starts == firsts

    def test_batch_sizes_are_full_then_remainder(self):
        config = _tiny()
        source = SyntheticBackbone(config)
        schedule = build_schedule(config, source)
        for t in range(config.sessions):
            sizes = [len(ids) for ids, s, _ in schedule.batches if s == t]
            assert all(b == config.batch_size for b in sizes[:-1])
            assert 1 <= sizes[-1] <= config.batch_size

    def test_same_seed_same_schedule_different_seed_differs(self):
        config = _tiny()
        source = SyntheticBackbone(config)
        a = build_schedule(config, source)
        b = build_schedule(config, source)
        for ids_a, ids_b in zip(a.sessions, b.sessions):
            np.testing.assert_array_equal(ids_a, ids_b)
        other = _tiny(seed=2)
        c = build_schedule(other, SyntheticBackbone(other))
        assert any(len(x) != len(y) or (x != y).any()
                   for x, y in zip(a.sessions, c.sessions))

    def test_empty_session_is_a_config_error(self):
        config = _tiny(num_classes=2, sessions=3, disjoint_ratio=1.0,
                       blurry_ratio=0.0)
        with pytest.raises(ConfigError):
            build_schedule(config, SyntheticBackbone(config))

    def test_impossible_holdout_is_a_config_error(self):
        config = _tiny(samples_per_class=2, holdout_fraction=0.1)
        with pytest.raises(ConfigError):
            build_schedule(config, SyntheticBackbone(config))


class TestBackbone:
    def test_features_are_pure_in_seed_and_id(self):
        config = _tiny()
        a = SyntheticBackbone(config)
        b = SyntheticBackbone(config)
        ids = np.array([0, 5, 17, 100])
        np.testing.assert_array_equal(a.features(ids), b.features(ids))

    def test_labels_follow_id_blocks(self):
        config = _tiny()
        source = SyntheticBackbone(config)
        assert source.labels[0] == 0
        assert source.labels[config.samples_per_class] == 1
        assert len(source.labels) == config.num_classes * config.samples_per_class

    def test_noise_scale_controls_cluster_tightness(self):
        tight = SyntheticBackbone(_tiny(noise_scale=0.01))
        loose = SyntheticBackbone(_tiny(noise_scale=2.0))
        ids = np.arange(20)  # all of class 0
        assert tight.features(ids).std(axis=0).mean() < \
            loose.features(ids).std(axis=0).mean()


class TestCursor:
    def test_full_consumption_matches_schedule(self):
        source, schedule = build_stream(_tiny())
        cursor = StreamCursor(schedule, source)
        total = 0
        sessions_seen = []
        while True:
            batch = cursor.next_batch()
            if batch is None:
                break
            X, y, ids, session, is_start = batch
            assert X.shape == (len(ids), source.d)
            np.testing.assert_array_equal(y, source.labels[ids])
            total += len(ids)
            sessions_seen.append(session)
        assert total == schedule.total_train
        assert cursor.next_batch() is None

    def test_two_cursors_yield_identical_batches(self):
        source, schedule = build_stream(_tiny())
        a, b = StreamCursor(schedule, source), StreamCursor(schedule, source)
        while True:
            ba, bb = a.next_batch(), b.next_batch()
            if ba is None:
                assert bb is None
                break
            np.testing.assert_array_equal(ba[2], bb[2])

    def test_skip_to_resumes_exactly(self):
        source, schedule = build_stream(_tiny())
        ref = StreamCursor(schedule, source)
        for _ in range(5):
            ref.next_batch()
        skipped = StreamCursor(schedule, source)
        skipped.skip_to(5)
        while True:
            ba, bb = ref.next_batch(), skipped.next_batch()
            if ba is None:
                assert bb is None
                break
            np.testing.assert_array_equal(ba[2], bb[2])

    def test_skip_out_of_range_raises(self):
        source, schedule = build_stream(_tiny())
        cursor = StreamCursor(schedule, source)
        with pytest.raises(ConfigError):
            cursor.skip_to(len(schedule.batches) + 1)


class TestFeatureFile:
    def test_round_trip_preserves_everything(self, tmp_path):
        config = _tiny()
        source = SyntheticBackbone(config)
        path = tmp_path / "features.txt"
        write_feature_file(path, source)
        loaded = load_feature_file(path)
        assert loaded.d == source.d
        assert loaded.num_classes == source.num_classes
        np.testing.assert_array_equal(loaded.labels, source.labels)
        ids = np.arange(len(source.labels))
        np.testing.assert_array_equal(loaded.features(ids),
                                      source.features(ids))

    def test_file_source_feeds_the_scheduler(self, tmp_path):
        config = _tiny()
        path = tmp_path / "features.txt"
        write_feature_file(path, SyntheticBackbone(config))
        file_config = _tiny(feature_file=str(path))
        source, schedule = build_stream(file_config)
        direct_source, direct = build_stream(config)
        for ids_a, ids_b in zip(schedule.sessions, direct.sessions):
            np.testing.assert_array_equal(ids_a, ids_b)

    @pytest.mark.parametrize("key, value", [("d", 5), ("num_classes", 9)])
    def test_header_that_differs_from_the_config_is_refused(
            self, tmp_path, key, value):
        """A run records its stream config; a file whose header gives
        another width or class count is refused instead of recorded."""
        path = tmp_path / "features.txt"
        write_feature_file(path, SyntheticBackbone(_tiny()))
        with pytest.raises(ConfigError, match="header d=4 classes=8"):
            build_stream(_tiny(feature_file=str(path), **{key: value}))

    def test_small_file_batches_split_as_sliced(self, tmp_path):
        path = tmp_path / "three.txt"
        path.write_text(
            "d=2 classes=1 rows=3\n"
            "0,1.0,2.0\n0,3.0,4.0\n0,5.0,6.0\n")
        source = load_feature_file(path)
        config = StreamConfig(num_classes=1, sessions=1, batch_size=2,
                              samples_per_class=3, d=2,
                              holdout_fraction=0.0, seed=1)
        schedule = build_schedule(config, source)
        sizes = [len(ids) for ids, _, _ in schedule.batches]
        assert sizes == [2, 1]

    @pytest.mark.parametrize("extremes", [False, True])
    def test_numpy_parse_is_bit_equal_to_the_line_walk(self, tmp_path,
                                                       extremes):
        path = tmp_path / "features.txt"
        if extremes:  # subnormal, signed zero, largest finite, 17 digits
            path.write_text(
                "d=3 classes=12 rows=2\n"
                "0,5e-324,-0,1.7976931348623157e+308\n"
                "11,0.1,-2.2250738585072014e-308,123456789.12345679\n")
        else:
            write_feature_file(path, SyntheticBackbone(_tiny(d=16)))
        source = load_feature_file(path)
        got = source.labels, source.features(np.arange(len(source.labels)))
        for got, want in zip(got, feature_file_ref(path)):  # labels, X
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("body", [
        "0,1.0,2.0\n\n1,3.0,4.0\n",          # blank line inside
        "0,1.0,2.0\r\n1,3.0,4.0\r\n",       # CRLF line ends
        " 0,1.0,2.0\n+1, 3.0 ,4.0\n",        # label the walk alone reads
    ])
    def test_irregular_but_valid_bodies_parse_the_same(self, tmp_path, body):
        path = tmp_path / "odd.txt"
        path.write_text("d=2 classes=2 rows=2\n" + body, newline="")
        source = load_feature_file(path)
        np.testing.assert_array_equal(source.labels, [0, 1])
        np.testing.assert_array_equal(source.features([0, 1]),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_non_finite_cell_in_a_regular_body_names_the_byte_offset(
            self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("d=2 classes=1 rows=3\n0,1.0,2.0\n"
                        "0,3.0,nan\n0,5.0,6.0\n")
        with pytest.raises(ConfigError) as err:
            load_feature_file(path)
        assert "row 1 at byte 31" in str(err.value)

    def test_missing_file_is_a_config_error_naming_the_path(self, tmp_path):
        for path in (tmp_path / "absent.csv", tmp_path):  # a dir is unreadable
            with pytest.raises(ConfigError) as err:
                load_feature_file(path)
            assert str(err.value).startswith(f"{path}: unreadable")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_feature_file(path)

    def test_width_mismatch_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("d=3 classes=1 rows=1\n0,1.0,2.0\n")
        with pytest.raises(ConfigError) as err:
            load_feature_file(path)
        assert "byte" in str(err.value)

    @pytest.mark.parametrize("row", [
        "0,1.0,",      # d commas, d - 1 cells: the size guard refuses it
        "0,1_0,2.0",   # float() reads 1_0 as 10; no writer emits it
        "0,,2.0",
    ])
    def test_row_with_a_cell_numpy_cannot_read_names_the_byte_offset(
            self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"d=2 classes=1 rows=2\n0,1.0,2.0\n{row}\n")
        with pytest.raises(ConfigError) as err:
            load_feature_file(path)
        assert str(err.value).endswith("unparseable row at byte 31")

    @pytest.mark.parametrize("header", ["d=-1 classes=1 rows=1",
                                        "d=2 classes=1 rows=-1"])
    def test_negative_header_size_is_a_config_error(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n")
        with pytest.raises(ConfigError) as err:
            load_feature_file(path)
        assert "malformed header at byte 0" in str(err.value)

    @pytest.mark.parametrize("rows", [2, 10_000_000_000_000])
    def test_more_declared_rows_than_lines_is_refused_unallocated(
            self, tmp_path, rows):
        """A header may not declare more rows than the file has lines: the
        refusal comes before its rows x d matrix is allocated."""
        path = tmp_path / "bad.txt"
        path.write_text(f"d=4 classes=2 rows={rows}\n0,1.0,2.0,3.0,4.0")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                load_feature_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"declares {rows} rows, more than the file's 1 lines" in str(
            err.value)
        assert peak < 1 << 20

    def test_parse_peak_is_the_file_and_the_matrix(self, tmp_path):
        """The walk holds one line at a time: its traced peak stays within
        the file's bytes plus the parsed labels, rows and line offsets and
        the rows' finiteness mask."""
        path = tmp_path / "features.txt"
        write_feature_file(path, SyntheticBackbone(
            _tiny(d=64, samples_per_class=50)))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            source = _walk(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows, d = len(source.labels), source.d
        parsed = rows * (8 + 8 + 8 * d + d)  # labels, offsets, X, X's mask
        assert peak < 1.1 * (size + parsed)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_the_byte_offset(self, tmp_path, cell):
        path = tmp_path / "bad.txt"
        path.write_text("d=2 classes=1 rows=3\n0,1.0,2.0\n\n"
                        f"0,3.0,{cell}\n0,5.0,6.0\n")
        with pytest.raises(ConfigError) as err:
            load_feature_file(path)
        assert "row 1 at byte 32" in str(err.value)

    def test_malformed_header_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("width=3 rows=1\n0,1.0,2.0,3.0\n")
        with pytest.raises(ConfigError):
            load_feature_file(path)


# One fault injected into an otherwise valid file; "none" injects nothing.
FAULTS = ("none", "blank line", "whitespace line", "crlf", "trailing comma",
          "empty cell", "quoted cell", "hash cell", "float label",
          "label out of range", "nan cell", "inf cell", "non-ascii byte",
          "control byte", "extra row", "missing row", "extra column",
          "missing column")

CELL_FORMATS = (repr, "{:.17g}".format, "{:.3e}".format, " {!r}\t".format)


@st.composite
def feature_files(draw):
    """(file bytes, fault) for a small valid file with one fault injected."""
    d, classes, n = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                     draw(st.integers(1, 5)))
    cell = st.builds(lambda fmt, v: fmt(v), st.sampled_from(CELL_FORMATS),
                     st.floats(allow_nan=False, allow_infinity=False))
    rows = [[str(draw(st.integers(0, classes - 1)))]
            + [draw(cell) for _ in range(d)] for _ in range(n)]
    fault = draw(st.sampled_from(FAULTS))
    row, col = rows[draw(st.integers(0, n - 1))], draw(st.integers(1, d))
    lines = [",".join(r) for r in rows]
    at = draw(st.integers(0, n))
    if fault == "blank line":
        lines.insert(at, "")
    elif fault == "whitespace line":
        lines.insert(at, " \t ")
    elif fault in ("extra row", "missing row"):
        lines = lines + [lines[0]] if fault == "extra row" else lines[1:]
    else:
        row[col] = {
            "trailing comma": row[col] + ",", "empty cell": "",
            "quoted cell": f'"{row[col]}"', "hash cell": "#" + row[col],
            "nan cell": "nan", "inf cell": "-inf",
            "non-ascii byte": row[col] + draw(st.sampled_from(
                ["\xa0", "\x85", "\xc3\xa9"])),
            "control byte": "\x1c" + row[col],
            "extra column": row[col] + ",0.5",
        }.get(fault, row[col])
        if fault == "missing column":
            del row[col]
        elif fault == "float label":
            row[0] += ".0"
        elif fault == "label out of range":
            row[0] = draw(st.sampled_from([str(classes), "-1"]))
        lines = [",".join(r) for r in rows]
    newline = "\r\n" if fault == "crlf" else "\n"
    text = f"d={d} classes={classes} rows={n}" + newline + "".join(
        line + newline for line in lines)
    return text.encode("latin-1"), fault


def _outcome(load, path):
    """What a loader makes of a file: its error text, or every bit of the
    source it returns."""
    try:
        source = load(path)
    except ConfigError as err:
        return str(err)
    X = source.features(np.arange(len(source.labels)))
    return (source.d, source.num_classes, source.labels.dtype, X.dtype,
            X.shape, source.labels.tobytes(), X.tobytes())


class TestFastPassAgainstTheWalk:
    @settings(max_examples=400, deadline=None)
    @given(case=feature_files())
    def test_both_return_the_same_bits_or_the_same_error(
            self, tmp_path_factory, case):
        body, fault = case
        path = tmp_path_factory.getbasetemp() / "differential.txt"
        path.write_bytes(body)
        walked = _outcome(_walk, path)
        assert _outcome(load_feature_file, path) == walked
        if fault == "none" and not isinstance(walked, str):
            assert _load_table(path) is not None  # a clean file needs no walk

    def test_clean_file_reads_without_a_copy_of_its_bytes(self, tmp_path):
        """The fast pass holds the table, not the file: its traced peak
        stays under the file's size."""
        path = tmp_path / "features.txt"
        write_feature_file(path, SyntheticBackbone(
            _tiny(d=64, samples_per_class=50)))
        tracemalloc.start()
        try:
            source = load_feature_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows, d = len(source.labels), source.d
        assert peak < path.stat().st_size
        assert peak < 2 * rows * (d + 1) * 8


class TestConfigValidation:
    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            StreamConfig(disjoint_ratio=1.5)
        with pytest.raises(ConfigError):
            StreamConfig(blurry_ratio=-0.1)
        with pytest.raises(ConfigError):
            StreamConfig(holdout_fraction=1.0)

    def test_positive_sizes(self):
        with pytest.raises(ConfigError):
            StreamConfig(num_classes=0)
        with pytest.raises(ConfigError):
            StreamConfig(batch_size=0)
