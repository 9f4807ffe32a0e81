import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcam.errors import EncodingError, FlowcamError, FramingError, PayloadError
from flowcam.matcher import FlowVector
from flowcam.wire_format import (
    LINE_BYTES,
    SENTINEL_FIELD,
    VECTORS_PER_LINE,
    decode,
    encode,
    read_ofv,
    write_ofv,
)


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

# Malformed payloads: raw bytes, or whole lines of records whose fields sit at
# the edges (score limit, sign bit, sentinel), with sentinel records anywhere.
record_strategy = st.one_of(
    st.just(b"\xff" * 12),
    st.lists(st.sampled_from([0, 7, 256, 257, 0x8000, SENTINEL_FIELD]),
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


class TestEncode:
    def test_empty_stream(self):
        assert encode([]) == b""

    def test_twenty_vectors_two_lines(self):
        rng = np.random.default_rng(0)
        data = encode(random_vectors(rng, 20))
        assert len(data) == 384
        # trailing 12 records of the second line are sentinels
        assert data[-12 * 12 :] == b"\xff" * 144

    def test_known_byte_layout(self):
        v = FlowVector(5, 7, -1, 0, 3, 9)
        data = encode([v])
        assert data[:12] == bytes(
            [0x05, 0x00, 0x07, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0x03, 0x00, 0x09, 0x00]
        )
        assert len(data) == LINE_BYTES

    def test_out_of_range_coordinate_names_field(self):
        with pytest.raises(EncodingError, match="x_prev"):
            encode([FlowVector(4000, 0, 0, 0, 0, 0)])

    def test_out_of_range_score_names_field(self):
        # Bypass the dataclass check to exercise the codec validation.
        v = FlowVector(0, 0, 0, 0, 0, 0)
        object.__setattr__(v, "second_score", 400)
        with pytest.raises(EncodingError, match="second_score"):
            encode([v])


class TestDecode:
    def test_round_trip_twenty(self):
        rng = np.random.default_rng(1)
        vectors = random_vectors(rng, 20)
        assert decode(encode(vectors)) == vectors

    def test_all_sentinel_line_is_empty(self):
        assert decode(b"\xff" * LINE_BYTES) == []

    def test_truncated_input_rejected(self):
        with pytest.raises(FramingError):
            decode(b"\x00" * 100)

    def test_bad_score_rejected(self):
        line = bytearray(b"\xff" * LINE_BYTES)
        line[0:12] = bytes([0, 0, 0, 0, 0, 0, 0, 0, 0x2C, 0x01, 0x2C, 0x01])  # 300
        with pytest.raises(PayloadError):
            decode(bytes(line))

    @pytest.mark.parametrize("n, sentinels, record", [
        (3, [1], 2),  # vectors 0 and 2 with a sentinel in slot 1
        (17, range(16), 16),  # an all-sentinel line before a real line
    ])
    def test_real_record_after_sentinel_rejected(self, n, sentinels, record):
        data = bytearray(encode(random_vectors(np.random.default_rng(3), n)))
        for i in sentinels:
            data[12 * i : 12 * i + 12] = b"\xff" * 12
        with pytest.raises(PayloadError, match=f"record {record} follows"):
            decode(bytes(data))

    @given(data=payload_strategy)
    @settings(max_examples=300, deadline=None)
    def test_only_typed_errors_escape(self, data):
        try:
            decode(data)
        except FlowcamError:
            pass

    @given(vectors=st.lists(vector_strategy, max_size=80))
    @settings(max_examples=250, deadline=None)
    def test_round_trip_property(self, vectors):
        data = encode(vectors)
        n = len(vectors)
        assert len(data) == -(-n // 16) * LINE_BYTES
        assert decode(data) == vectors


class TestOfvStream:
    def test_stream_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        per_frame = [random_vectors(rng, int(n)) for n in rng.integers(0, 40, size=7)]
        path = tmp_path / "run.ofv"
        write_ofv(path, 640, 480, per_frame)
        width, height, back = read_ofv(path)
        assert (width, height) == (640, 480)
        assert back == per_frame

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ofv"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FramingError):
            read_ofv(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "trail.ofv"
        write_ofv(path, 64, 64, [[]])
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FramingError):
            read_ofv(path)

    # Each example rewrites the same file, so sharing tmp_path is harmless.
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
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
