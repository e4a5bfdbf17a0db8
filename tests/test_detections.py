"""The detection column table: its loader against the per-record loader it
replaced, evaluation of a table against the oracle's record lists, and the
memory that loading and evaluating a large detection file takes."""

import json
import math
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ttcloc import cli
from ttcloc.errors import ValidationError, json_types, type_error
from ttcloc.evaluator import evaluate, index_from_rows, oracle_evaluate
from ttcloc.localizer import Detection, Detections, load_detections

from test_evaluator import assert_reports_equal

_STRING, _INTEGER, _NUMBER = (json_types(t) for t in (str, int, float))
_FIELDS = (("video_id", _STRING), ("class_id", _INTEGER), ("start_s", _NUMBER), ("end_s", _NUMBER), ("score", _NUMBER))


def reference_values(video_id, class_id, start, end, score) -> None:
    """The value rule of a record, written out here: finite times and score,
    ``start < end`` as float64, and a class id within int64."""
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValidationError(f"detection in {video_id!r}: non-finite start {start} or end {end}")
    if not float(start) < float(end):
        raise ValidationError(f"detection in {video_id!r}: start {start} must precede end {end}")
    if not math.isfinite(score):
        raise ValidationError(f"detection in {video_id!r}: non-finite score")
    if not -(2**63) <= class_id < 2**63:
        raise ValidationError(f"class_id {class_id} lies outside int64")


def reference_load_detections(path: str) -> list[Detection]:
    """The per-record loader: one ``Detection`` per line, each checked by
    :func:`reference_values`, kept as the reference that the column loader
    must agree with."""
    decode = json.JSONDecoder().raw_decode
    detections = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode(errors="surrogateescape").decode()
                obj, end = decode(line)
                if end != len(line):
                    raise ValueError(f"extra data at character {end}")
                if type(obj) is not dict:
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                vid, c, start, stop, score = obj["video_id"], obj["class_id"], obj["start_s"], obj["end_s"], obj["score"]
                typed = type(vid) in _STRING and type(c) in _INTEGER and type(start) in _NUMBER
                if not (typed and type(stop) in _NUMBER and type(score) in _NUMBER):
                    raise next(type_error(key, kinds, obj[key]) for key, kinds in _FIELDS if type(obj[key]) not in kinds)
                reference_values(vid, c, start, stop, score)
                detections.append(Detection(vid, c, start, stop, score))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad detection record: {exc}") from exc
    return detections


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def outcome(load, path):
    """``("ok", rows)`` with each float as its bytes, or ``("error", message)``."""
    try:
        rows = [(d.video_id, d.class_id, bits(d.start), bits(d.end), bits(d.score)) for d in load(path)]
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", rows


# -- drawn detection files ---------------------------------------------------

video_ids = st.sampled_from(["v1", "v2", "vidéo", 'q"uote', ""])
class_ids = st.integers(-2, 30) | st.integers() | st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**80])
small_numbers = st.floats(-1e3, 1e3) | st.integers(-1000, 1000)
wild_numbers = st.floats() | st.integers() | st.sampled_from([10**400, -(10**400), 2**53, 2**53 + 1, 2**70, -0.0])
wrong_types = st.sampled_from([True, False, None, "1", [0.5], {"a": 1}, 1.5])


@st.composite
def valid_records(draw):
    start = draw(small_numbers)
    delta = draw(st.floats(1e-3, 100.0) | st.integers(1, 50))
    record = {
        "video_id": draw(video_ids),
        "class_id": draw(st.integers(0, 4)),
        "start_s": start,
        "end_s": start + delta,
        "score": draw(st.floats(0.0, 1.0) | st.integers(0, 1)),
    }
    if draw(st.booleans()):
        record["class_name"] = "extra key"
    return record


def dumps(draw, record) -> bytes:
    return json.dumps(record, ensure_ascii=draw(st.booleans())).encode()


@st.composite
def broken_lines(draw):
    """One line that changes a valid record: a value that breaks a rule, or
    damage to the line itself."""
    record = draw(valid_records())
    key = draw(st.sampled_from([k for k, _ in _FIELDS]))
    change = draw(st.sampled_from(["wrong type", "class", "wild", "reversed", "missing", "bytes", "trailing", "split", "not an object"]))
    if change == "wrong type":
        record[key] = draw(wrong_types)
    elif change == "class":
        record["class_id"] = draw(class_ids)
    elif change == "wild":
        record[draw(st.sampled_from(["start_s", "end_s", "score"]))] = draw(wild_numbers)
    elif change == "reversed":
        record["end_s"] = draw(st.sampled_from([record["start_s"], record["start_s"] - 1]))
    elif change == "missing":
        del record[key]
    line = dumps(draw, record)
    if change == "bytes":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\xed\xb2\x80", b"\xc3", b"\x80"])) + line[at:]
    elif change == "trailing":
        line += draw(st.sampled_from([b" {}", b"x", b",", b" " + line]))
    elif change == "split":
        at = draw(st.integers(1, len(line) - 1))
        line = line[:at] + b"\n" + line[at:]
    elif change == "not an object":
        line = draw(st.sampled_from([b"[1, 2]", b'"text"', b"5", b"null"]))
    return line


@st.composite
def valid_lines(draw):
    return dumps(draw, draw(valid_records()))


blank_lines = st.sampled_from([b"", b"   ", b"\t", b" \t "])


@st.composite
def detection_files(draw):
    """Valid and blank lines, and in most files one line that breaks a rule."""
    body = draw(st.lists(valid_lines() | blank_lines, max_size=8))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        body.insert(draw(st.integers(0, len(body))), draw(broken_lines()))
    return draw(st.sampled_from([b"\n", b"\r\n"])).join(body) + draw(st.sampled_from([b"", b"\n"]))


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as root:
        yield root


@settings(derandomize=True, database=None, max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blob=detection_files())
@example(blob=b'{"video_id": "v", "class_id": 18446744073709551616, "start_s": 0, "end_s": 1, "score": 0.5}\n')
@example(blob=b'{"video_id": "v", "class_id": 0, "start_s": NaN, "end_s": 1, "score": 0.5}\n')
@example(blob=b'{"video_id": "v", "class_id": 0, "start_s": 0, "end_s": 1, "score": -Infinity}\n')
@example(blob=b'{"video_id": "v", "class_id": 0, "start_s": 1, "end_s": 1, "score": 0.5}\n')
@example(blob=b'{"video_id": "v", "class_id": 0,\n"start_s": 0, "end_s": 1, "score": 0.5}\n')
def test_column_loader_matches_the_per_record_loader(scratch, blob):
    path = os.path.join(scratch, "det.jsonl")
    with open(path, "wb") as fh:
        fh.write(blob)
    assert outcome(load_detections, path) == outcome(reference_load_detections, path)


def test_times_are_judged_as_float64(tmp_path):
    """Integer times beyond 2**53 are read as their float64 values, so a record
    whose times meet there is empty, in the file as in a table."""
    path = tmp_path / "det.jsonl"
    path.write_text(json.dumps({"video_id": "v", "class_id": 0, "start_s": 2.0**53, "end_s": 2**53 + 1, "score": 0.5}) + "\n")
    message = f"{path}:1: bad detection record: detection in 'v': start 9007199254740992.0 must precede end 9007199254740993"
    with pytest.raises(ValidationError) as raised:
        load_detections(str(path))
    assert str(raised.value) == message
    with pytest.raises(ValidationError, match="must precede"):
        Detections.from_records([Detection("v", 0, 2.0**53, 2**53 + 1, 0.5)])


# -- the table -----------------------------------------------------------------

RECORDS = [
    Detection("v2", 1, 0.5, 1.5, 0.25),
    Detection("v1", 0, 0.0, 2.0, 0.75),
    Detection("v2", 0, 3.0, 4.0, 0.5),
]


class TestTable:
    def test_from_records_iterates_back(self):
        table = Detections.from_records(RECORDS)
        assert len(table) == 3 and list(table) == RECORDS
        assert table.video_ids == ("v2", "v1") and table.video_index.tolist() == [0, 1, 0]
        assert [table.class_id.dtype, table.start.dtype, table.end.dtype, table.score.dtype] == [np.int64] + [np.float64] * 3
        assert all(type(d) is Detection and type(d.class_id) is int and type(d.start) is float for d in table)

    def test_columns_and_table_are_read_only(self):
        table = Detections.from_records(RECORDS)
        with pytest.raises(ValueError):
            table.start[0] = 9.0
        with pytest.raises(AttributeError):
            table.score = np.zeros(3)

    def test_concat_and_take(self):
        a, b = Detections.from_records(RECORDS[:2]), Detections.from_records(RECORDS[2:])
        joined = Detections.concat([a, Detections.from_records([]), b])
        assert list(joined) == RECORDS and joined.video_ids == ("v2", "v1")
        assert list(joined.take(np.array([2, 0]))) == [RECORDS[2], RECORDS[0]]
        assert len(Detections.concat([])) == 0

    @pytest.mark.parametrize(
        "start, end, score, message",
        [
            (0.0, math.inf, 0.5, "non-finite start 0.0 or end inf"),
            (math.nan, 1.0, 0.5, "non-finite start nan or end 1.0"),
            (2.0, 2.0, 0.5, "start 2.0 must precede end 2.0"),
            (3.0, 2.0, 0.5, "start 3.0 must precede end 2.0"),
            (0.0, 1.0, math.nan, "non-finite score"),
            (0.0, 1.0, -math.inf, "non-finite score"),
        ],
    )
    def test_first_bad_row_raises_the_record_message(self, start, end, score, message):
        columns = ([0.0, start, 5.0], [1.0, end, 4.0], [0.5, score, math.nan])
        with pytest.raises(ValidationError) as raised:
            Detections(("v1", "v9"), [0, 1, 0], [0, 0, 0], *columns)
        assert str(raised.value) == f"detection in 'v9': {message}"

    @pytest.mark.parametrize(
        "row, message",
        [
            # a class id that is not an integer within int64 is refused, not truncated or wrapped
            (Detection("v9", 1.5, 0.0, 1.0, 0.5), "class_id 1.5 is not an integer within int64"),
            (Detection("v9", "1", 0.0, 1.0, 0.5), "class_id '1' is not an integer within int64"),
            (Detection("v9", True, 0.0, 1.0, 0.5), "class_id True is not an integer within int64"),
            (Detection("v9", 2**63, 0.0, 1.0, 0.5), "class_id 9223372036854775808 is not an integer within int64"),
            (Detection("v9", 2**70, 0.0, 1.0, 0.5), "class_id 1180591620717411303424 is not an integer within int64"),
            (Detection("v9", -(2**63) - 1, 0.0, 1.0, 0.5), "class_id -9223372036854775809 is not an integer within int64"),
            # as is a time or score beyond float64
            (Detection("v9", 0, 10**400, 1.0, 0.5), "start is not a number within float64"),
            (Detection("v9", 0, 0.0, 10**400, 0.5), "end is not a number within float64"),
            (Detection("v9", 0, 0.0, 1.0, -(10**400)), "score is not a number within float64"),
            # the first bad row decides, whatever makes the later one bad
            (Detection("v9", 0, 3.0, 2.0, 0.5), "start 3.0 must precede end 2.0"),
        ],
    )
    def test_value_no_column_holds_raises_its_row(self, row, message):
        records = [Detection("v1", 0, 0.0, 1.0, 0.5), row, Detection("v1", 2.5, 0.0, 1.0, 0.5)]
        with pytest.raises(ValidationError) as raised:
            Detections.from_records(records)
        assert str(raised.value) == f"detection in 'v9': {message}"

    @pytest.mark.parametrize("column", [np.array([0.0, 1.0]), np.array(["0", "1"]), np.array([False, True]), np.array([0, 2**63], np.uint64)])
    def test_class_column_not_of_int64_values_rejected(self, column):
        with pytest.raises(ValidationError, match="class_id .* is not an integer within int64"):
            Detections(("v1",), [0, 0], column, [0.0, 0.0], [1.0, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_class_column_of_any_integer_dtype_within_int64_accepted(self, dtype):
        table = Detections(("v1",), [0, 0], np.array([0, 7], dtype), [0.0, 0.0], [1.0, 1.0], [0.5, 0.5])
        assert table.class_id.dtype == np.int64 and table.class_id.tolist() == [0, 7]

    @pytest.mark.parametrize(
        "ids, index, match",
        [(("v1", "v1"), [0, 1], "distinct"), (("v1",), [0, 1], "video index"), (("v1",), [-1, 0], "video index")],
    )
    def test_bad_video_index_rejected(self, ids, index, match):
        with pytest.raises(ValidationError, match=match):
            Detections(ids, index, [0, 0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize("index", [[0.5], np.array([0.0]), [True]])
    def test_video_index_not_of_integers_rejected(self, index):
        # video_index follows the class_id rule: a float is not truncated to a row of video 0
        with pytest.raises(ValidationError, match="detection video index .* is not an integer"):
            Detections(("v",), index, [1], [0.0], [1.0], [0.5])

    def test_row_message_comes_after_its_index_check(self):
        # the class id holds no column, so the row rule runs, and the index names no video id
        with pytest.raises(ValidationError, match="detection video index outside the 1 video ids"):
            Detections(("v",), [5], [1.5], [0.0], [1.0], [0.5])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValidationError, match="one length"):
            Detections(("v1",), [0, 0], [0, 0], [0.0], [1.0, 1.0], [0.5, 0.5])


# -- evaluation of a table -------------------------------------------------------

GT = index_from_rows(2, ("v1", "v2"), [("v1", 0, 0.0, 2.0), ("v2", 1, 0.0, 1.0)])


class TestEvaluateTable:
    def test_equals_the_oracle_on_its_records(self):
        assert_reports_equal(evaluate(Detections.from_records(RECORDS), GT, (0.3, 0.5)), oracle_evaluate(RECORDS, GT, (0.3, 0.5)))

    @pytest.mark.parametrize(
        "records, message",
        [
            ([RECORDS[0], Detection("nope", 0, 0.0, 1.0, 0.5)], "detection references unknown video 'nope'"),
            ([Detection("v1", 7, 0.0, 1.0, 0.5)], "detection class 7 outside 2 classes"),
            ([Detection("v1", -1, 0.0, 1.0, 0.5)], "detection class -1 outside 2 classes"),
            # the first offending row decides, and in it the video is checked first
            ([Detection("v1", 7, 0.0, 1.0, 0.5), Detection("nope", 0, 0.0, 1.0, 0.5)], "detection class 7 outside 2 classes"),
            ([Detection("nope", 7, 0.0, 1.0, 0.5)], "detection references unknown video 'nope'"),
            # both refuse a class id that would truncate to a ground-truth class
            ([Detection("v2", 1.5, 0.0, 1.0, 0.5)], "detection in 'v2': class_id 1.5 is not an integer within int64"),
        ],
    )
    def test_first_offender_message(self, records, message):
        for run in (oracle_evaluate, lambda d, *a: evaluate(Detections.from_records(d), *a)):
            with pytest.raises(ValidationError) as raised:
                run(records, GT, (0.5,))
            assert str(raised.value) == message


# -- a class id beyond int64 -----------------------------------------------------


@pytest.mark.parametrize("class_id", [2**63, 2**70, -(2**63) - 1])
def test_class_beyond_int64_rejected_at_its_line(tmp_path, capsys, class_id):
    """No class space holds such an id, so the file is refused where it says so."""
    good = {"video_id": "v1", "class_id": 0, "start_s": 0, "end_s": 1, "score": 0.5}
    path = tmp_path / "det.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "class_id": class_id}) + "\n")
    message = f"{path}:2: bad detection record: class_id {class_id} lies outside int64"
    with pytest.raises(ValidationError) as raised:
        load_detections(str(path))
    assert str(raised.value) == message
    ds = str(tmp_path / "ds")
    assert cli.main(["synth", "--preset", "easy", "--num-classes", "2", "--videos-per-class", "1", "--out", ds]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert cli.main(["eval", "--det", str(path), "--gt", os.path.join(ds, "manifest.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# -- memory ------------------------------------------------------------------------

MEMORY_VIDEOS, MEMORY_CLASSES, MEMORY_LINES = 200, 10, 50_000
# tracemalloc peak of load_detections + evaluate on the file below: 2.5 MB for
# the column table, 12.0 MB for the per-record loader and evaluator it replaced
MEMORY_BOUND_MB = 5.0


def write_large_detection_file(path) -> object:
    """``MEMORY_LINES`` detections over ``MEMORY_VIDEOS`` videos; returns the ground truth."""
    rng = np.random.default_rng(0)
    videos = [f"video_{i:04d}" for i in range(MEMORY_VIDEOS)]
    vid = rng.integers(0, MEMORY_VIDEOS, MEMORY_LINES)
    cls = rng.integers(0, MEMORY_CLASSES, MEMORY_LINES)
    start = rng.integers(0, 500, MEMORY_LINES) * 0.64
    end = start + rng.integers(1, 20, MEMORY_LINES) * 0.64
    score = rng.uniform(size=MEMORY_LINES)
    with open(path, "w", encoding="utf-8") as fh:
        for v, c, s, e, p in zip(vid.tolist(), cls.tolist(), start.tolist(), end.tolist(), score.tolist()):
            fh.write(f'{{"class_id": {c}, "end_s": {e!r}, "score": {p!r}, "start_s": {s!r}, "video_id": "{videos[v]}"}}\n')
    rows = [(v, (i + j) % MEMORY_CLASSES, 20.0 * j, 20.0 * j + 6.4) for i, v in enumerate(videos) for j in range(4)]
    return index_from_rows(MEMORY_CLASSES, videos, rows)


def test_loading_and_evaluating_a_large_file_stays_small(tmp_path):
    path = str(tmp_path / "det.jsonl")
    gt = write_large_detection_file(path)
    tracemalloc.start()
    try:
        report = evaluate(load_detections(path), gt, (0.1, 0.3, 0.5, 0.7))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert 0.0 < report.average_map < 1.0
    assert peak < MEMORY_BOUND_MB, f"tracemalloc peak {peak:.2f} MB"
