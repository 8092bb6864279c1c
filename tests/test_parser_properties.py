"""Property tests: each parser returns a value or raises its documented error
for any input, never another exception."""

import json
import random
import struct
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_midi_io import random_sequence, vlq
from s2a.align import AlignmentMap
from s2a.midi_io import NoteSequence, SMFParseError, parse_smf, write_smf
from s2a.tokenizer import FEATURE_NAMES, TokenTuple, load_tokens


def parses_or_raises_smf_error(data: bytes) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # notes left open at end of track
        try:
            assert isinstance(parse_smf(data), NoteSequence)
        except SMFParseError:
            pass


byte = st.integers(0, 255)
channel_event = st.builds(lambda status, data: bytes([status, *data]),
                          st.integers(0x80, 0xEF), st.lists(byte, min_size=0, max_size=2))
meta_event = st.builds(lambda kind, payload: bytes([0xFF, kind]) + vlq(len(payload)) + payload,
                       byte, st.binary(max_size=8))
sysex_event = st.builds(lambda status, payload: bytes([status]) + vlq(len(payload)) + payload,
                        st.sampled_from([0xF0, 0xF7]), st.binary(max_size=8))
event = st.builds(lambda delta, body: vlq(delta) + body, st.integers(0, 2**21),
                  st.one_of(channel_event, meta_event, sysex_event, st.binary(max_size=4)))


@st.composite
def smf_bytes(draw):
    """Plausible SMF files: a header with any field values, then tracks of
    events drawn from every message kind plus stray bytes; the declared
    chunk lengths are right or off by a little."""
    fmt = draw(st.integers(0, 3))
    tracks = draw(st.lists(st.lists(event, max_size=12), max_size=3))
    n_tracks = draw(st.one_of(st.just(len(tracks)), st.integers(0, 4)))
    division = draw(st.integers(0, 0xFFFF))
    data = struct.pack(">4sIHHH", b"MThd", 6, fmt, n_tracks, division)
    for events in tracks:
        body = b"".join(events)
        if draw(st.booleans()):
            body += b"\x00\xff\x2f\x00"
        length = len(body) + draw(st.sampled_from([0, 0, 0, -1, 1, 5]))
        data += struct.pack(">4sI", b"MTrk", max(length, 0)) + body
    return data


@st.composite
def damaged_performance(draw):
    """A valid file with 1-3 bytes changed, or cut short."""
    seq = random_sequence(random.Random(draw(st.integers(0, 2**32 - 1))), max_notes=20)
    data = bytearray(write_smf(seq))
    if draw(st.booleans()):
        return bytes(data[:draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(byte)
    return bytes(data)


class TestParseSMF:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    @example(b"MThd\x00\x00\x00\x06\x00\x01\xff\xff\x01\xe0")  # 65535 tracks declared, none given
    def test_any_bytes(self, data):
        parses_or_raises_smf_error(data)

    @settings(max_examples=400, deadline=None)
    @given(smf_bytes())
    def test_plausible_files(self, data):
        parses_or_raises_smf_error(data)

    @settings(max_examples=300, deadline=None)
    @given(damaged_performance())
    def test_damaged_performances(self, data):
        parses_or_raises_smf_error(data)


json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=12,
)
index = st.one_of(st.integers(-2, 50), json_value)
alignment_like = st.fixed_dictionaries(
    {},
    optional={
        "pairs": st.one_of(st.lists(st.lists(index, min_size=0, max_size=3), max_size=5),
                           json_value),
        "unmatched_score": st.one_of(st.lists(index, max_size=4), json_value),
        "unmatched_perf": st.one_of(st.lists(index, max_size=4), json_value),
    },
)


def loads_alignment_or_raises_value_error(text: str) -> None:
    try:
        assert isinstance(AlignmentMap.from_json(text), AlignmentMap)
    except ValueError:
        pass


class TestAlignmentFromJson:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    @example("[" * 100_000 + "]" * 100_000)  # nested deeper than the decoder recurses
    @example('{"pairs": [[1e400, 2]], "unmatched_score": [], "unmatched_perf": []}')
    @example('{"pairs": [[NaN, 2]], "unmatched_score": [], "unmatched_perf": []}')
    def test_any_text(self, text):
        loads_alignment_or_raises_value_error(text)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(alignment_like, json_value))
    @example({"pairs": 5, "unmatched_score": [], "unmatched_perf": []})
    @example({"pairs": [[1, 2, 3]], "unmatched_score": [], "unmatched_perf": []})
    @example([])
    def test_json_documents(self, obj):
        loads_alignment_or_raises_value_error(json.dumps(obj))


token_line = st.lists(
    st.one_of(st.integers(-5, 5000).map(str), st.text(max_size=3)), max_size=8
).map("\t".join)


@st.composite
def token_dump(draw):
    header = "\t".join(FEATURE_NAMES) if draw(st.booleans()) else draw(token_line)
    return "\n".join([header, *draw(st.lists(token_line, max_size=6))])


class TestLoadTokens:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=60), token_dump()))
    @example("\t".join(FEATURE_NAMES) + "\n" + "\t".join(["9" * 5000] * 6))
    def test_any_text(self, text):
        try:
            tokens = load_tokens(text)
        except ValueError:
            return
        assert all(isinstance(t, TokenTuple) for t in tokens)
