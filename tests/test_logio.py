from __future__ import annotations

import base64
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIM, unit_rows
from oracles import read_log_strict
from lgr import (
    Config,
    HashProvider,
    LogParseError,
    LogRecord,
    Pose,
    decode_vector,
    encode_vector,
    load_log,
    read_log_records,
    record_to_observation,
    subsample,
    write_log,
)
from lgr.logio import _check_vector, _is_canonical_vector, _iter_log_records


def rec(frame: str, t: float, labels=(), caption="", **kw) -> LogRecord:
    return LogRecord(
        frame_id=frame,
        t=t,
        pose=kw.pop("pose", Pose(0.0, 0.0)),
        labels=tuple(labels),
        caption=caption,
        **kw,
    )


class TestVectorCodec:
    def test_round_trip_bit_exact(self):
        vec = unit_rows(1, 17, seed=1)[0]
        out = decode_vector(encode_vector(vec))
        assert out.dtype == np.float32
        assert np.array_equal(out, vec)
        assert out.tobytes() == vec.tobytes()

    def test_bad_base64_rejected(self):
        with pytest.raises(ValueError, match="base64"):
            decode_vector("!!!not-base64!!!")

    def test_bad_length_rejected(self):
        import base64

        data = base64.b64encode(b"abcde").decode()
        with pytest.raises(ValueError, match="multiple of 4"):
            decode_vector(data)


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        emb = unit_rows(2, DIM, seed=2)
        records = [
            rec("f0", 0.0, labels=["cup"], caption="a cup",
                label_embeddings=(emb[0],), caption_embedding=emb[1]),
            rec("f1", 2.5, labels=["cup", "door"], caption="a cup by a door"),
        ]
        path = tmp_path / "log.jsonl"
        write_log(records, path)
        loaded = read_log_records(path)
        assert [r.frame_id for r in loaded] == ["f0", "f1"]
        assert loaded[0].labels == ("cup",)
        assert np.array_equal(loaded[0].label_embeddings[0], emb[0])
        assert loaded[1].label_embeddings is None

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        body = json.dumps(rec("f0", 0.0).to_json_dict())
        path.write_text(f"# header comment\n\n{body}\n")
        assert len(read_log_records(path)) == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"frame_id": "f0"\n')
        with pytest.raises(LogParseError, match=":1:"):
            read_log_records(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"frame_id": "f0", "t": 0.0}\n')
        with pytest.raises(LogParseError, match=":1:"):
            read_log_records(path)

    def test_out_of_order_timestamps_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log([rec("f0", 5.0), rec("f1", 4.0)], path)
        with pytest.raises(LogParseError, match="non-decreasing"):
            read_log_records(path)

    def test_negative_time_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log([rec("f0", -1.0)], path)
        with pytest.raises(LogParseError, match="non-negative"):
            read_log_records(path)

    def test_embedding_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        emb = unit_rows(1, DIM, seed=3)
        obj = rec("f0", 0.0, labels=["a", "b"]).to_json_dict()
        obj["label_embeddings"] = [encode_vector(emb[0])]
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(LogParseError, match="label_embeddings"):
            read_log_records(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("labels", "abc"),  # was split into the labels 'a', 'b', 'c'
            ("labels", {"a": 1}),
            ("label_embeddings", 5),  # was an uncaught TypeError
            ("label_embeddings", "abc"),
        ],
    )
    def test_mistyped_list_field_reports_line(self, tmp_path, field, value):
        obj = rec("f1", 1.0, labels=["a", "b", "c"]).to_json_dict()
        obj[field] = value
        path = tmp_path / "log.jsonl"
        first = json.dumps(rec("f0", 0.0).to_json_dict())
        path.write_text(first + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(LogParseError, match=rf"log\.jsonl:2: .*{field} must be a list"):
            read_log_records(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("labels", [1, None, {"b": 2}]),  # were the labels '1', 'None', "{'b': 2}"
            ("labels", ["a", None, "c"]),
            ("caption", ["x"]),  # was the caption "['x']"
            ("caption", None),
            ("caption", 5),
        ],
    )
    def test_non_string_label_or_caption_reports_line(self, tmp_path, field, value):
        obj = rec("f1", 1.0, labels=["a", "b", "c"], caption="c").to_json_dict()
        obj[field] = value
        path = tmp_path / "log.jsonl"
        first = json.dumps(rec("f0", 0.0).to_json_dict())
        path.write_text(first + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(LogParseError, match=r"log\.jsonl:2: .*must be strings"):
            read_log_records(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t", "2.0"),  # was t 2.0
            ("t", True),
            ("t", None),
            ("frame_id", True),  # was the frame 'True'
            ("frame_id", 1.5),
            ("frame_id", None),
            ("frame_id", ["f"]),
            ("pose", {"x": True, "y": 0.0}),  # was x 1.0
            ("pose", {"x": 0.0, "y": "1e1"}),  # was y 10.0
            ("pose", {"x": 0.0, "y": 0.0, "z": False}),
            ("pose", {"x": 0.0, "y": 0.0, "yaw": "0.5"}),
        ],
    )
    def test_mistyped_number_or_frame_id_reports_line(self, tmp_path, field, value):
        obj = rec("f1", 1.0).to_json_dict()
        obj[field] = value
        path = tmp_path / "log.jsonl"
        first = json.dumps(rec("f0", 0.0).to_json_dict())
        path.write_text(first + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(LogParseError, match=r"log\.jsonl:2: bad record: .*must be"):
            read_log_records(path)

    def test_coercible_record_refused_at_its_line(self, tmp_path):
        # this line was read as frame '7' at t 2.0, pose (1, 10, 0)
        path = tmp_path / "log.jsonl"
        path.write_text('{"frame_id": 7, "t": "2.0", "pose": {"x": true, "y": "1e1"}}\n')
        with pytest.raises(LogParseError, match=r"log\.jsonl:1: bad record: t must be a number"):
            read_log_records(path)

    def test_integer_frame_id_reads_as_its_string(self, tmp_path):
        obj = rec("f0", 0.0).to_json_dict() | {"frame_id": 7}
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        (record,) = read_log_records(path)
        assert record.frame_id == "7" and record.t == 0.0


class TestSubsample:
    def test_ten_hz_ten_seconds_keeps_six(self):
        records = [rec(f"f{i}", i / 10) for i in range(101)]
        kept = subsample(records, 2.0)
        assert len(kept) == 6
        assert [r.t for r in kept] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_first_record_always_kept(self):
        records = [rec("f0", 3.7), rec("f1", 3.8)]
        kept = subsample(records, 2.0)
        assert [r.frame_id for r in kept] == ["f0"]

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            subsample([], 0.0)

    @pytest.mark.parametrize("period", [0.0, -2.0])
    def test_subsampling_reader_rejects_the_same_periods(self, period, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log([rec("f0", 0.0)], path)
        with pytest.raises(ValueError, match="period must be > 0"):
            list(_iter_log_records(path, period))

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=60))
    def test_kept_records_never_closer_than_period(self, times):
        records = [rec(f"f{i}", t) for i, t in enumerate(sorted(times))]
        kept = subsample(records, 2.0)
        assert kept[0].t == records[0].t
        for a, b in zip(kept, kept[1:]):
            assert b.t - a.t >= 2.0


class TestRecordToObservation:
    def test_provider_embeds_missing_vectors(self, cfg64, provider64):
        obs = record_to_observation(
            rec("f0", 1.0, labels=["cup"], caption="a cup"), cfg64, provider64
        )
        assert np.array_equal(obs.labels[0].embedding, provider64.embed("cup"))
        assert np.array_equal(obs.caption.embedding, provider64.embed("a cup"))

    def test_precomputed_vectors_win(self, cfg64, provider64):
        emb = unit_rows(1, DIM, seed=4)[0]
        obs = record_to_observation(
            rec("f0", 1.0, labels=["cup"], label_embeddings=(emb,)),
            cfg64,
            provider64,
        )
        assert np.array_equal(obs.labels[0].embedding, emb)

    def test_yaw_normalized_on_load(self, cfg64, provider64):
        obs = record_to_observation(
            rec("f0", 1.0, pose=Pose(0.0, 0.0, 0.0, 3 * math.pi / 2)),
            cfg64,
            provider64,
        )
        assert obs.pose.yaw == pytest.approx(-math.pi / 2)

    def test_empty_caption_becomes_none(self, cfg64, provider64):
        obs = record_to_observation(rec("f0", 1.0, caption=""), cfg64, provider64)
        assert obs.caption is None

    def test_dimension_mismatch_rejected(self, provider64):
        cfg = Config(embedding_dim=DIM + 1)
        with pytest.raises(ValueError, match="invalid observation"):
            record_to_observation(rec("f0", 1.0, labels=["cup"]), cfg, provider64)

    def test_unnormalized_precomputed_vector_rejected(self, cfg64, provider64):
        bad = (unit_rows(1, DIM, seed=5)[0] * 1.5).astype(np.float32)
        with pytest.raises(ValueError, match="not L2-normalized"):
            record_to_observation(
                rec("f0", 1.0, labels=["cup"], label_embeddings=(bad,)),
                cfg64,
                provider64,
            )


class TestLoadLog:
    def test_full_pipeline(self, tmp_path, cfg64, provider64):
        records = [rec(f"f{i}", i / 10, labels=["cup"], caption="a cup") for i in range(101)]
        path = tmp_path / "log.jsonl"
        write_log(records, path)
        observations = list(load_log(path, cfg64, provider64))
        assert len(observations) == 6
        assert observations[0].frame_id == "f0"
        assert observations[-1].time == 10.0

    def _log_with_dropped_line(self, tmp_path, bad: dict):
        """Records at t = 0, 2 and 4, which subsampling at 2 s keeps, with
        ``bad`` on line 3 between the last two."""
        good = [rec("f0", 0.0, labels=["cup"]), rec("f2", 2.0, labels=["cup"])]
        lines = [json.dumps(good[0].to_json_dict()), json.dumps(good[1].to_json_dict()),
                 json.dumps(bad), json.dumps(rec("f4", 4.0, labels=["cup"]).to_json_dict())]
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_bad_vector_on_dropped_line_reports_its_line(self, tmp_path, cfg64, provider64):
        bad = rec("f3", 2.5, labels=["cup"]).to_json_dict()
        bad["label_embeddings"] = ["!!!not-base64!!!"]
        path = self._log_with_dropped_line(tmp_path, bad)
        with pytest.raises(LogParseError, match=r"log\.jsonl:3: bad base64"):
            next(load_log(path, cfg64, provider64))

    def test_decreasing_time_on_dropped_line_reports_its_line(self, tmp_path, cfg64, provider64):
        bad = rec("f3", 1.0, labels=["cup"]).to_json_dict()
        path = self._log_with_dropped_line(tmp_path, bad)
        with pytest.raises(LogParseError, match=r"log\.jsonl:3: timestamps must be non-decreasing"):
            next(load_log(path, cfg64, provider64))

    @pytest.mark.parametrize(
        "field, vector, message",
        [
            ("caption_embedding", "!!!not-base64!!!", "bad base64"),
            ("caption_embedding", base64.b64encode(b"abcde").decode(), "vector byte length 5"),
            ("label_embeddings", [base64.b64encode(b"abcde").decode()], "vector byte length 5"),
            ("label_embeddings", ["QUJDRA="], "bad base64"),  # one '=' short
            ("label_embeddings", ["QUJD=RA="], "bad base64"),  # '=' inside
        ],
    )
    def test_vector_fault_on_dropped_line_reports_its_line(
        self, tmp_path, cfg64, provider64, field, vector, message
    ):
        bad = rec("f3", 2.5, labels=["cup"], caption="a cup").to_json_dict()
        bad[field] = vector
        path = self._log_with_dropped_line(tmp_path, bad)
        with pytest.raises(LogParseError, match=rf"log\.jsonl:3: {message}"):
            next(load_log(path, cfg64, provider64))


def _outcome(fn, value):
    try:
        fn(value)
    except ValueError as exc:
        return str(exc)
    return None


MUTATIONS = (None, "foreign", "whitespace", "inner =", "three =", "extra =", "drop", "append",
             "payload", "non-ascii", "int", "list", "none", "bytes")


@settings(max_examples=500, deadline=None)
@given(
    payload=st.lists(st.floats(width=32), max_size=12),
    mutation=st.sampled_from(MUTATIONS),
    where=st.floats(0.0, 1.0),
    char=st.integers(0, 3),
)
def test_dropped_line_check_accepts_exactly_what_decode_accepts(payload, mutation, where, char):
    text = encode_vector(np.array(payload, dtype=np.float32))
    at = round(where * len(text))
    value = {
        None: text,
        "foreign": text[:at] + "!-_*"[char] + text[at:],
        "whitespace": text[:at] + " \t\n\r"[char] + text[at:],
        "inner =": text[:at] + "=" + text[at:],
        "three =": text.rstrip("=") + "===",
        "extra =": text + "=" * (1 + char % 2),
        "drop": text[:at] + text[at + 1:],
        "append": text + "AAA"[: 1 + char % 3],
        "payload": base64.b64encode(np.array(payload, "<f4").tobytes() + b"x" * (1 + char % 3)).decode(),
        "non-ascii": text[:at] + "\u00e9\u2028\uff21\U0001f600"[char] + text[at:],
        "int": 4 * char,
        "list": [text],
        "none": None,
        "bytes": text.encode("ascii"),
    }[mutation]
    decoded = _outcome(decode_vector, value)
    assert _outcome(_check_vector, value) == decoded
    if _is_canonical_vector(value):
        assert decoded is None
    if mutation is None:
        assert _is_canonical_vector(value)


@st.composite
def logs(draw):
    """Records with non-decreasing t at 0.5-2.5 s steps (repeats included),
    carrying vectors on every line, on none or on some."""
    mode = draw(st.sampled_from(("vectors", "provider", "mixed")))
    other = HashProvider(seed=5, dim=DIM)  # vectors that differ from the loader's provider
    t = draw(st.sampled_from((0.0, 0.25, 3.0)))
    records = []
    for i in range(draw(st.integers(1, 14))):
        t += draw(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 2.5)))
        labels = draw(st.lists(st.sampled_from(("cup", "door", "bench")), max_size=3))
        caption = draw(st.sampled_from(("", "a cup", "a door by a bench")))
        with_labels = mode == "vectors" or mode == "mixed" and draw(st.booleans())
        with_caption = mode == "vectors" or mode == "mixed" and draw(st.booleans())
        records.append(rec(
            f"f{i}", t, labels, caption,
            pose=Pose(draw(st.floats(-50, 50)), 1.0, 0.0, draw(st.sampled_from((0.0, 3 * math.pi / 2)))),
            label_embeddings=tuple(other.embed(x) for x in labels) if with_labels else None,
            caption_embedding=other.embed(caption) if with_caption and caption else None,
        ))
    return records


FAULTS = {
    "bad label vector": lambda o: o.update(labels=["cup"], label_embeddings=["!!"]),
    "bad caption vector": lambda o: o.update(caption_embedding="QUJDRA="),
    "bad vector and time": lambda o: o.update(caption_embedding="QUJDRA=", t=-1.0),
    "count": lambda o: o.update(labels=["cup"], label_embeddings=[]),
    "negative time": lambda o: o.update(t=-2.0),
    "time goes back": lambda o: o.update(t=o["t"] - 7.0),
    "missing pose": lambda o: o.pop("pose"),
    "not unit": lambda o: o.update(caption="c", caption_embedding=encode_vector(np.full(DIM, 0.5))),
}


def _load(fn):
    """``("ok", what the observations hold)`` or ``("error", the message)``."""
    try:
        observations = fn()
    except ValueError as exc:
        return "error", type(exc).__name__, str(exc)
    return "ok", [
        (
            o.frame_id, o.pose, o.time,
            [(lab.text, lab.embedding.dtype.str, lab.embedding.tobytes()) for lab in o.labels],
            o.caption and (o.caption.text, o.caption.embedding.dtype.str, o.caption.embedding.tobytes()),
        )
        for o in observations
    ]


@settings(max_examples=150, deadline=None)
@given(records=logs(), fault=st.none() | st.sampled_from(sorted(FAULTS)), at=st.floats(0.0, 1.0))
def test_load_log_equals_parse_then_subsample_then_convert(records, fault, at):
    cfg, provider = Config(embedding_dim=DIM), HashProvider(seed=11, dim=DIM)
    lines = [r.to_json_dict() for r in records]
    if fault is not None:
        FAULTS[fault](lines[min(int(at * len(lines)), len(lines) - 1)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in lines))
        got = _load(lambda: list(load_log(path, cfg, provider)))
        want = _load(lambda: [
            record_to_observation(r, cfg, provider)
            for r in subsample(read_log_records(path), cfg.subsample_period)
        ])
    assert got == want
    if fault is None:
        assert got[0] == "ok"


# ----------------------------------------------------------------------
# the readers against an uncached strict reader
# ----------------------------------------------------------------------

POOL = [encode_vector(v) for v in unit_rows(3, DIM, seed=41)]  # vector texts that repeat
BAD_VECTORS = ("QUJDRA=", "!!", base64.b64encode(b"abcde").decode())


def _vector_bits(e):
    return None if e is None else (e.dtype.str, e.shape, e.tobytes())


def _record_bits(records) -> list:
    """What the records hold, bit for bit."""
    return [
        (
            r.frame_id, r.t.hex(), tuple(v.hex() for v in (r.pose.x, r.pose.y, r.pose.z, r.pose.yaw)),
            r.labels, r.caption,
            None if r.label_embeddings is None else tuple(map(_vector_bits, r.label_embeddings)),
            _vector_bits(r.caption_embedding),
        )
        for r in records
    ]


def _observation_bits(observations) -> list:
    return [
        (
            o.frame_id, o.time.hex(), tuple(v.hex() for v in (o.pose.x, o.pose.y, o.pose.z, o.pose.yaw)),
            [(lab.text, _vector_bits(lab.embedding)) for lab in o.labels],
            o.caption and (o.caption.text, _vector_bits(o.caption.embedding)),
        )
        for o in observations
    ]


def _parsed(fn, path):
    """``("ok", fn())``, ``("error", line, message)`` for a LogParseError,
    which must name ``path:line``, or ``("invalid", message)`` for another
    ValueError. Anything else propagates and fails the test."""
    try:
        return "ok", fn()
    except LogParseError as exc:
        where = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
        assert where, str(exc)
        return "error", int(where.group(1)), str(exc)
    except ValueError as exc:
        return "invalid", str(exc)


def _compare_with_strict(path, exact: bool = True) -> None:
    """``read_log_records`` and ``load_log`` give what the strict reader
    gives (with ``exact`` False, for an error only its line)."""
    cfg, provider = Config(embedding_dim=DIM), HashProvider(seed=11, dim=DIM)
    n = None if exact else 2
    got = _parsed(lambda: _record_bits(read_log_records(path)), path)
    assert got[:n] == _parsed(lambda: _record_bits(read_log_strict(path)), path)[:n]
    got = _parsed(lambda: _observation_bits(load_log(path, cfg, provider)), path)
    want = _parsed(lambda: _observation_bits(
        record_to_observation(r, cfg, provider) for r in read_log_strict(path, cfg.subsample_period)
    ), path)
    assert got[:n] == want[:n]


def _write_lines(tmp: str, lines: list) -> Path:
    path = Path(tmp) / "log.jsonl"
    path.write_text("".join((o if isinstance(o, str) else json.dumps(o)) + "\n" for o in lines))
    return path


@st.composite
def repeating_logs(draw, bad: bool = True):
    """JSON records whose vector texts come from ``POOL`` (and, with
    ``bad``, maybe one bad text), at 0-2.5 s steps, so one text recurs on
    lines that subsampling at 2 s keeps and on lines it drops."""
    pool = POOL + ([draw(st.sampled_from(BAD_VECTORS))] if bad and draw(st.booleans()) else [])
    t, lines = draw(st.sampled_from((0.0, 0.5))), []
    for i in range(draw(st.integers(1, 12))):
        t += draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 2.5)))
        labels = draw(st.lists(st.sampled_from(("cup", "door", "bench")), max_size=3))
        obj = {"frame_id": f"f{i}", "t": t, "pose": {"x": 1.0, "y": -2.0}, "labels": labels,
               "caption": "a cup"}
        if draw(st.booleans()):
            obj["label_embeddings"] = [draw(st.sampled_from(pool)) for _ in labels]
        if draw(st.booleans()):
            obj["caption_embedding"] = draw(st.sampled_from(pool))
        lines.append(obj)
    return lines


@settings(max_examples=150, deadline=None)
@given(lines=repeating_logs())
def test_readers_equal_the_strict_reader(lines):
    with tempfile.TemporaryDirectory() as tmp:
        _compare_with_strict(_write_lines(tmp, lines))


def _bad_vector_lines(bad: str) -> list:
    """Line 2 (t = 0.5, dropped at 2 s) and line 3 (t = 2, kept) carry the
    same bad vector text."""
    line = {"frame_id": "f0", "t": 0.0, "pose": {"x": 0.0, "y": 0.0}, "labels": ["cup"],
            "label_embeddings": [POOL[0]]}
    return [line, dict(line, frame_id="f1", t=0.5, label_embeddings=[bad]),
            dict(line, frame_id="f2", t=2.0, label_embeddings=[bad])]


@pytest.mark.parametrize("bad", BAD_VECTORS)
def test_bad_vector_first_seen_on_a_dropped_line_names_that_line(tmp_path, cfg64, provider64, bad):
    path = _write_lines(tmp_path, _bad_vector_lines(bad))
    with pytest.raises(LogParseError, match=rf"log\.jsonl:2: "):
        next(load_log(path, cfg64, provider64))
    with pytest.raises(LogParseError, match=rf"log\.jsonl:2: "):
        read_log_records(path)
    _compare_with_strict(path)


@settings(max_examples=60, deadline=None)
@given(lines=repeating_logs(bad=False))
def test_equal_vector_texts_share_one_read_only_array(lines):
    cfg, provider = Config(embedding_dim=DIM), HashProvider(seed=11, dim=DIM)
    pool = {decode_vector(text).tobytes() for text in POOL}
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_lines(tmp, lines)
        loads = (
            [e for r in read_log_records(path) for e in (*(r.label_embeddings or ()), r.caption_embedding)],
            [e for o in load_log(path, cfg, provider)
             for e in (*(lab.embedding for lab in o.labels), o.caption and o.caption.embedding)],
        )
        for vectors in loads:
            arrays: dict[bytes, set] = {}
            for e in vectors:
                if e is not None and e.tobytes() in pool:
                    arrays.setdefault(e.tobytes(), set()).add(id(e))
                    assert not e.flags.writeable
            assert all(len(ids) == 1 for ids in arrays.values()), arrays


# ----------------------------------------------------------------------
# fuzzing the reader with mutated lines
# ----------------------------------------------------------------------

FIELDS = (
    ("frame_id",), ("t",), ("pose",), ("pose", "x"), ("pose", "y"), ("pose", "z"), ("pose", "yaw"),
    ("labels",), ("labels", 0), ("caption",), ("label_embeddings",), ("label_embeddings", 1),
    ("caption_embedding",),
)
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from((10**400, -(10**400))),  # JSON integers too large for a float
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _valid_line(i: int) -> dict:
    return {"frame_id": f"f{i}", "t": float(i), "pose": {"x": 1.0, "y": 2.0, "z": 0.5, "yaw": 0.25},
            "labels": ["cup", "door"], "caption": "a cup by a door",
            "label_embeddings": [POOL[i % 3], POOL[(i + 1) % 3]], "caption_embedding": POOL[2]}


@settings(max_examples=300, deadline=None)
@given(
    at=st.integers(0, 4),
    field=st.sampled_from(FIELDS),
    how=st.sampled_from(("swap", "drop", "nest", "truncate")),
    value=JSON_VALUES,
    nest=st.booleans(),
    cut=st.floats(0.0, 1.0),
)
def test_mutated_line_is_read_as_the_strict_reader_reads_it(at, field, how, value, nest, cut):
    """A log of five lines one second apart, one of them mutated: the
    readers return what the strict reader accepts, or raise LogParseError
    naming the line where it fails, and never TypeError, KeyError or
    AttributeError."""
    lines: list = [_valid_line(i) for i in range(5)]
    line = lines[at]
    *parents, key = field
    holder = line
    for p in parents:
        holder = holder[p]
    if how == "swap":
        holder[key] = value
    elif how == "drop":
        del holder[key]
    elif how == "nest":
        holder[key] = [holder[key]] if nest else {"v": holder[key]}
    else:
        text = json.dumps(line)
        lines[at] = text[: int(cut * (len(text) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        _compare_with_strict(_write_lines(tmp, lines), exact=False)
