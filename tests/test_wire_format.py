import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowcam.errors import EncodingError, FlowcamError, FramingError, PayloadError
from flowcam.matcher import FlowVector, VectorBatch
from flowcam.wire_format import (
    LINE_BYTES,
    OFV_MAGIC,
    SENTINEL_FIELD,
    VECTORS_PER_LINE,
    VectorTable,
    encode,
    read_ofv,
    write_ofv,
)
from oracles import vector_batch


def random_vectors(rng, n):
    out = []
    for _ in range(n):
        x = int(rng.integers(0, 2048))
        y = int(rng.integers(0, 2048))
        best = int(rng.integers(0, 257))
        second = int(rng.integers(best, 257))
        out.append(
            FlowVector(x, y, int(rng.integers(-64, 65)), int(rng.integers(-64, 65)),
                       best, second)
        )
    return out


vector_strategy = st.builds(
    lambda x, y, dx, dy, scores: FlowVector(x, y, dx, dy, min(scores), max(scores)),
    x=st.integers(0, 2047),
    y=st.integers(0, 2047),
    dx=st.integers(-2048, 2048),
    dy=st.integers(-2048, 2048),
    scores=st.tuples(st.integers(0, 256), st.integers(0, 256)),
)


@st.composite
def batch_strategy(draw):
    """A VectorBatch drawn as whole columns, with every field at its limits."""
    n = draw(st.integers(0, 40))
    ints = st.integers
    cols = [draw(st.lists(ints(lo, hi), min_size=n, max_size=n)) for lo, hi in (
        (0, 2047), (0, 2047), (-(2**15), 2**15 - 1), (-(2**15), 2**15 - 1))]
    scores = draw(st.lists(st.tuples(ints(0, 256), ints(0, 256)).map(sorted),
                           min_size=n, max_size=n))
    rows = np.array([list(r) for r in zip(*cols)], dtype=np.int64).reshape(-1, 4)
    return VectorBatch(np.hstack([rows, np.array(scores, dtype=np.int64).reshape(-1, 2)]))


def table(per_frame):
    """Per-frame record lists or batches as the table `write_ofv` takes."""
    return VectorTable.from_frames(
        [encode(v if isinstance(v, VectorBatch) else vector_batch(v)) for v in per_frame])


def block(path, vectors):
    """The frame block a one-frame stream carries for `vectors`: whole lines
    of records padded with sentinels, after the header and line count."""
    write_ofv(path, 64, 64, table([vectors]))
    return path.read_bytes()[20:]


def read_block(path, payload):
    """The one frame `read_ofv` reads from a stream whose only block is
    `payload`, counted as the lines it starts."""
    n_lines = -(-len(payload) // LINE_BYTES)
    path.write_bytes(OFV_MAGIC + bytes(8) + (1).to_bytes(4, "little")
                     + n_lines.to_bytes(4, "little") + payload)
    [vectors] = read_ofv(path)[2]
    return vectors


# Malformed payloads: raw bytes, or whole lines of records whose fields sit at
# the edges (coordinate limit, score limit, sign bit, sentinel), with sentinel
# records anywhere.
record_strategy = st.one_of(
    st.just(b"\xff" * 12),
    st.lists(st.sampled_from([0, 7, 256, 257, 2047, 2048, 0x8000, SENTINEL_FIELD]),
             min_size=6, max_size=6).map(lambda f: np.array(f, dtype="<u2").tobytes()),
)
payload_strategy = st.one_of(
    st.binary(max_size=3 * LINE_BYTES),
    st.lists(
        st.lists(record_strategy, min_size=VECTORS_PER_LINE, max_size=VECTORS_PER_LINE)
        .map(b"".join),
        max_size=3,
    ).map(b"".join),
)


@st.composite
def edge_table(draw):
    """An int16 table of records at the edges of the record rule, split into
    frames anywhere. Then maybe one field of one record, or all six, is set to
    a raw u16 value that may break the rule: the coordinate limit, the score
    ceiling, the sentinel field, or scores that put best above second."""
    n = draw(st.integers(0, 20))
    pick = st.sampled_from
    fields = draw(st.lists(st.tuples(
        pick([0, 2047]), pick([0, 2047]), pick([0, 2048, 0x8000, SENTINEL_FIELD]),
        pick([0, 2048, 0x8000, SENTINEL_FIELD]), *[pick([0, 5, 256])] * 2).map(
        lambda r: (*r[:4], *sorted(r[4:]))), min_size=n, max_size=n))
    rows = np.array(fields, dtype="<u2").reshape(-1, 6)
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1)), draw(pick([0, 1, 4, 5, slice(None)]))] = draw(
            pick([0, 5, 10, 256, 257, 2047, 2048, SENTINEL_FIELD]))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return VectorTable(rows.view("<i2"), np.array([0, *cuts, n]))


# Each example rewrites the same file, so sharing tmp_path is harmless.
SHARED_TMP = [HealthCheck.function_scoped_fixture]


class TestEncode:
    def test_empty_stream(self, tmp_path):
        assert block(tmp_path / "s.ofv", []) == b""

    def test_twenty_vectors_two_lines(self, tmp_path):
        rng = np.random.default_rng(0)
        data = block(tmp_path / "s.ofv", random_vectors(rng, 20))
        assert len(data) == 384
        # trailing 12 records of the second line are sentinels
        assert data[-12 * 12 :] == b"\xff" * 144

    def test_known_byte_layout(self, tmp_path):
        v = FlowVector(5, 7, -1, 0, 3, 9)
        records = encode(vector_batch([v]))
        assert records.dtype.str == "<i2" and records.tolist() == [[5, 7, -1, 0, 3, 9]]
        data = block(tmp_path / "s.ofv", [v])
        assert data[:12] == bytes(
            [0x05, 0x00, 0x07, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0x03, 0x00, 0x09, 0x00]
        )
        assert len(data) == LINE_BYTES

    def test_out_of_range_coordinate_names_field(self):
        with pytest.raises(EncodingError, match="x_prev"):
            encode(vector_batch([FlowVector(4000, 0, 0, 0, 0, 0)]))

    def test_best_above_second_names_record(self):
        v = VectorBatch(np.array([[0, 0, 0, 0, 3, 9], [0, 0, 0, 0, 10, 5]], dtype=np.int64))
        with pytest.raises(EncodingError, match="record 1 carries scores 10/5"):
            encode(v)

    def test_out_of_range_score_names_field(self):
        # A batch carries no check of its own; the codec validates.
        v = VectorBatch(np.array([[0, 0, 0, 0, 0, 400]], dtype=np.int64))
        with pytest.raises(EncodingError, match="second_score"):
            encode(v)


class TestDecode:
    """One frame block read back by `read_ofv`."""

    def test_round_trip_twenty(self, tmp_path):
        rng = np.random.default_rng(1)
        vectors = random_vectors(rng, 20)
        path = tmp_path / "s.ofv"
        assert list(read_block(path, block(path, vectors))) == vectors

    def test_all_sentinel_line_is_empty(self, tmp_path):
        assert list(read_block(tmp_path / "s.ofv", b"\xff" * LINE_BYTES)) == []

    def test_truncated_input_rejected(self, tmp_path):
        with pytest.raises(FramingError):
            read_block(tmp_path / "s.ofv", b"\x00" * 100)

    def test_bad_score_rejected(self, tmp_path):
        line = bytearray(b"\xff" * LINE_BYTES)
        line[0:12] = bytes([0, 0, 0, 0, 0, 0, 0, 0, 0x2C, 0x01, 0x2C, 0x01])  # 300
        with pytest.raises(PayloadError):
            read_block(tmp_path / "s.ofv", bytes(line))

    @pytest.mark.parametrize("n, sentinels, record", [
        (3, [1], 2),  # vectors 0 and 2 with a sentinel in slot 1
        (17, range(16), 16),  # an all-sentinel line before a real line
    ])
    def test_real_record_after_sentinel_rejected(self, tmp_path, n, sentinels, record):
        path = tmp_path / "s.ofv"
        data = bytearray(block(path, random_vectors(np.random.default_rng(3), n)))
        for i in sentinels:
            data[12 * i : 12 * i + 12] = b"\xff" * 12
        with pytest.raises(PayloadError, match=f"record {record} follows"):
            read_block(path, bytes(data))

    @given(data=payload_strategy)
    @settings(max_examples=300, deadline=None, suppress_health_check=SHARED_TMP)
    def test_only_typed_errors_escape(self, tmp_path, data):
        try:
            read_block(tmp_path / "s.ofv", data)
        except FlowcamError:
            pass

    @given(vectors=st.lists(vector_strategy, max_size=80))
    @settings(max_examples=250, deadline=None, suppress_health_check=SHARED_TMP)
    def test_round_trip_property(self, tmp_path, vectors):
        path = tmp_path / "s.ofv"
        data = block(path, vectors)
        n = len(vectors)
        assert len(data) == -(-n // 16) * LINE_BYTES
        assert list(read_block(path, data)) == vectors

    @given(batch=batch_strategy())
    @settings(max_examples=250, deadline=None, suppress_health_check=SHARED_TMP)
    def test_batch_records_round_trip(self, tmp_path, batch):
        """Batch -> records -> write -> read gives back the batch and the
        same records; writing the records equals writing the batch."""
        path = tmp_path / "s.ofv"
        records = list(batch)
        assert len(records) == len(batch)
        data = block(path, records)
        assert data == block(path, batch)
        back = read_block(path, data)
        assert back == batch
        assert list(back) == records

    def test_best_above_second_rejected(self, tmp_path):
        line = bytearray(b"\xff" * LINE_BYTES)
        line[0:12] = bytes([0, 0, 0, 0, 0, 0, 0, 0, 10, 0, 5, 0])
        with pytest.raises(PayloadError, match="record 0 carries scores 10/5"):
            read_block(tmp_path / "s.ofv", bytes(line))


def patched_stream(path, fields):
    """A two-frame 64x64 stream whose frame-1 record 1 has its fields set as
    `{field index: raw u2 value}`."""
    vectors = [FlowVector(20, 20, 1, 0, 3, 9), FlowVector(30, 20, 1, 0, 3, 9)]
    write_ofv(path, 64, 64, table([[], vectors]))
    data = bytearray(path.read_bytes())
    # header, frame 0's empty block, frame 1's line count, then record 1
    at = 16 + 4 + 4 + 12
    for field, value in fields.items():
        data[at + 2 * field : at + 2 * field + 2] = np.array([value], dtype="<u2").tobytes()
    path.write_bytes(bytes(data))


class TestOfvStream:
    def test_stream_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        per_frame = [random_vectors(rng, int(n)) for n in rng.integers(0, 40, size=7)]
        path = tmp_path / "run.ofv"
        write_ofv(path, 640, 480, table(per_frame))
        width, height, back = read_ofv(path)
        assert (width, height) == (640, 480)
        assert [list(batch) for batch in back] == per_frame
        assert list(back) == [vector_batch(v) for v in per_frame]
        assert back == table(per_frame) and back.rows.dtype.str == "<i2"

    @pytest.mark.parametrize("best, second", [(10, 5), (300, 300)])
    def test_bad_scores_name_file_frame_and_record(self, tmp_path, best, second):
        path = tmp_path / "scores.ofv"
        patched_stream(path, {4: best, 5: second})
        with pytest.raises(PayloadError) as caught:
            read_ofv(path)
        message = str(caught.value)
        assert str(path) in message
        assert "frame 1" in message and "record 1" in message

    @pytest.mark.parametrize("field, value", [(0, 40000), (0, 2048), (1, 2048)])
    def test_far_coordinate_names_file_frame_and_record(self, tmp_path, field, value):
        # The bound `encode` enforces; an int16 table would read 40000 as negative.
        path = tmp_path / "far.ofv"
        patched_stream(path, {field: value})
        with pytest.raises(PayloadError) as caught:
            read_ofv(path)
        message = str(caught.value)
        assert str(path) in message and "frame 1" in message
        assert f"record 1 carries {('x_prev', 'y_prev')[field]} {value}" in message

    def test_last_coordinate_reads(self, tmp_path):
        path = tmp_path / "edge.ofv"
        patched_stream(path, {0: 2047, 1: 2047})
        assert read_ofv(path)[2][1].rows[1].tolist() == [2047, 2047, 1, 0, 3, 9]

    def test_zero_frame_stream_is_an_empty_table(self, tmp_path):
        path = tmp_path / "none.ofv"
        path.write_bytes(b"OFV1" + bytes(12))
        width, height, back = read_ofv(path)
        assert (width, height, len(back)) == (0, 0, 0)
        assert back.rows.shape == (0, 6) and back.offsets.tolist() == [0]
        assert list(back) == []

    def test_all_empty_frames(self, tmp_path):
        path = tmp_path / "empty.ofv"
        write_ofv(path, 64, 64, table([[], [], []]))
        assert path.read_bytes() == (b"OFV1" + (64).to_bytes(4, "little") * 2
                                     + (3).to_bytes(4, "little") + bytes(12))
        _, _, back = read_ofv(path)
        assert len(back) == 3 and back.offsets.tolist() == [0, 0, 0, 0]
        assert [len(v) for v in back] == [0, 0, 0] and len(back[-1]) == 0

    @settings(max_examples=300, deadline=None, suppress_health_check=SHARED_TMP)
    @given(table=edge_table())
    @example(table=VectorTable(np.array([[1, 2, 0, 0, 3, 9], [-1] * 6], "<i2"), np.array([0, 2])))
    @example(table=VectorTable(np.array([[1, 2, 0, 0, 10, 5]], "<i2"), np.array([0, 0, 1])))
    @example(table=VectorTable(np.array([[3000, 2, 0, 0, 3, 9]], "<i2"), np.array([0, 1])))
    def test_writer_refuses_exactly_what_reader_refuses(self, tmp_path, table):
        """An int16 table is written exactly when its records keep the rule,
        positions below 2048 and 0 <= best <= second <= 256, and then reads
        back equal."""
        path = tmp_path / "agree.ofv"
        path.unlink(missing_ok=True)
        u = table.rows.view("<u2")
        if ((u[:, :2] < 2048).all(axis=1) & (u[:, 4] <= u[:, 5]) & (u[:, 5] <= 256)).all():
            write_ofv(path, 64, 64, table)
            assert read_ofv(path)[2] == table
        else:
            with pytest.raises(EncodingError,
                               match=f"^{re.escape(str(path))}: frame .* record .* carries"):
                write_ofv(path, 64, 64, table)
            assert not path.exists()

    @pytest.mark.parametrize("n_rows, offsets", [
        (5, [0, 2]), (5, [0, 4, 2]), (5, [0, 4, 2, 5]), (5, [0, 4, 6]), (5, [1, 5]), (0, [1]),
    ])
    def test_offsets_that_miss_rows_not_written(self, tmp_path, n_rows, offsets):
        rows = np.tile(np.array([5, 7, -1, 0, 3, 9], dtype="<i2"), (n_rows, 1))
        with pytest.raises(EncodingError, match="offsets do not rise from 0 to its"):
            write_ofv(tmp_path / "cut.ofv", 64, 64, VectorTable(rows, np.array(offsets)))
        assert not (tmp_path / "cut.ofv").exists()

    def test_table_without_offsets_not_written(self, tmp_path):
        empty = VectorTable(np.empty((0, 6), dtype="<i2"), np.empty(0, dtype=np.int64))
        with pytest.raises(EncodingError, match="^frame count -1 does not fit"):
            write_ofv(tmp_path / "none.ofv", 64, 64, empty)
        assert not (tmp_path / "none.ofv").exists()

    def test_table_of_wide_rows_not_written(self, tmp_path):
        wide = VectorTable(np.array([[5, 7, -1, 0, 3, 9]], dtype=np.int64), np.array([0, 1]))
        with pytest.raises(EncodingError, match="int64"):
            write_ofv(tmp_path / "wide.ofv", 64, 64, wide)
        assert not (tmp_path / "wide.ofv").exists()

    @pytest.mark.parametrize("width, height, n_frames, field", [
        (64, 64, 2**32, "frame count"), (2**32, 64, 1, "frame width"),
        (64, -1, 1, "frame height"),
    ])
    def test_header_overflow_not_written(self, tmp_path, width, height, n_frames, field):
        # Offsets broadcast from one zero: a table of 2**32 empty frames
        # without 32 GB of offsets.
        offsets = np.broadcast_to(np.zeros(1, dtype=np.int64), (n_frames + 1,))
        big = VectorTable(np.empty((0, 6), dtype="<i2"), offsets)
        assert len(big) == n_frames
        with pytest.raises(EncodingError, match=f"^{field} .* 4-byte header field$"):
            write_ofv(tmp_path / "big.ofv", width, height, big)
        assert not (tmp_path / "big.ofv").exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ofv"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FramingError):
            read_ofv(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "trail.ofv"
        write_ofv(path, 64, 64, table([[]]))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FramingError):
            read_ofv(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=SHARED_TMP)
    @given(
        header=st.one_of(
            st.binary(max_size=20),
            st.tuples(st.integers(0, 4), st.binary(min_size=8, max_size=8)).map(
                lambda t: b"OFV1" + t[1] + t[0].to_bytes(4, "little")),
        ),
        blocks=st.lists(st.tuples(st.integers(0, 3), payload_strategy), max_size=4),
        cut=st.integers(0, 8),
    )
    def test_only_typed_errors_escape(self, tmp_path, header, blocks, cut):
        path = tmp_path / "fuzz.ofv"
        body = b"".join(n.to_bytes(4, "little") + payload for n, payload in blocks)
        path.write_bytes((header + body)[: len(header + body) - cut])
        try:
            read_ofv(path)
        except FlowcamError:
            pass
