"""Standard MIDI File parsing, serialization, and tick/second arithmetic.

Supports SMF format 0 and 1. Running status is accepted on input and never
emitted on output. Overlapping same-pitch notes are paired FIFO (first
note-on gets the first note-off); this is a convention, the file format
itself cannot distinguish the alternatives.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

TICKS_PER_BEAT = 96  # the grid every sequence is resampled onto
DEFAULT_TEMPO_US = 500000  # microseconds per quarter note (120 bpm)
SUSTAIN_CONTROLLER = 64
MAX_VLQ = 0x0FFFFFFF


class SMFParseError(ValueError):
    """Malformed Standard MIDI File; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SMFWarning(UserWarning):
    pass


@dataclass(frozen=True, order=True)
class NoteEvent:
    """One note with absolute onset time and duration in MIDI ticks."""

    onset_ticks: int
    duration_ticks: int
    pitch: int
    velocity: int
    channel: int = 0

    def __post_init__(self):
        if self.duration_ticks < 1:
            raise ValueError(f"duration_ticks must be >= 1, got {self.duration_ticks}")
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch must be in 0..127, got {self.pitch}")
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity must be in 1..127, got {self.velocity}")
        if not 0 <= self.channel <= 15:
            raise ValueError(f"channel must be in 0..15, got {self.channel}")

    @property
    def offset_ticks(self) -> int:
        return self.onset_ticks + self.duration_ticks


@dataclass(frozen=True)
class TempoEvent:
    tick: int
    microseconds_per_quarter: int

    def __post_init__(self):
        if not 1 <= self.microseconds_per_quarter <= 0xFFFFFF:  # the file stores 3 bytes
            raise ValueError("microseconds_per_quarter must be in 1..16777215, "
                             f"got {self.microseconds_per_quarter}")


@dataclass(frozen=True)
class TimeSignatureEvent:
    tick: int
    numerator: int
    denominator_log2: int

    def __post_init__(self):
        if not 1 <= self.numerator <= 255:  # the file stores it in one byte
            raise ValueError(f"numerator must be in 1..255, got {self.numerator}")
        if not 0 <= self.denominator_log2 <= 6:
            raise ValueError("denominator_log2 must be in 0..6")

    @property
    def denominator(self) -> int:
        return 1 << self.denominator_log2


@dataclass(frozen=True)
class NoteSequence:
    """Normalized in-memory MIDI: ordered notes plus tempo/signature maps.

    Notes are canonically sorted by (onset_ticks, pitch); tempo and time
    signature events are sorted by tick with duplicates at the same tick
    collapsed to the last one given. Immutable after construction.
    """

    ppq: int
    notes: tuple[NoteEvent, ...] = ()
    tempi: tuple[TempoEvent, ...] = ()
    time_signatures: tuple[TimeSignatureEvent, ...] = ()
    sustain_events: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not 1 <= self.ppq <= 0x7FFF:  # the header's top bit would mean SMPTE timing
            raise ValueError(f"ppq must be in 1..32767, got {self.ppq}")
        for _, value in self.sustain_events:  # the file stores each in one data byte
            if not (type(value) is int and 0 <= value <= 127):
                raise ValueError(f"sustain values must be ints in 0..127, got {value!r}")
        notes = tuple(sorted(self.notes, key=lambda n: (n.onset_ticks, n.pitch)))
        tempi = tuple(_dedupe_by_tick(sorted(self.tempi, key=lambda e: e.tick)))
        sigs = tuple(_dedupe_by_tick(sorted(self.time_signatures, key=lambda e: e.tick)))
        sustain = tuple(sorted(self.sustain_events))
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "tempi", tempi)
        object.__setattr__(self, "time_signatures", sigs)
        object.__setattr__(self, "sustain_events", sustain)

    def subset(self, indices) -> NoteSequence:
        """The notes at indices, under this tempo and time-signature map; the
        sustain events are dropped."""
        return replace(self, notes=tuple(self.notes[i] for i in indices), sustain_events=())

    def effective_time_signatures(self) -> tuple[TimeSignatureEvent, ...]:
        """Time signature map with the 4/4-at-tick-0 default applied."""
        sigs = self.time_signatures
        if not sigs or sigs[0].tick > 0:
            return (TimeSignatureEvent(0, 4, 2),) + sigs
        return sigs

    def effective_tempi(self) -> tuple[TempoEvent, ...]:
        tempi = self.tempi
        if not tempi or tempi[0].tick > 0:
            return (TempoEvent(0, DEFAULT_TEMPO_US),) + tempi
        return tempi


def _dedupe_by_tick(events):
    out = []
    for ev in events:
        if out and out[-1].tick == ev.tick:
            out[-1] = ev
        else:
            out.append(ev)
    return out


# ---------------------------------------------------------------------------
# Parsing

class _Reader:
    """Reads data[pos:end] in place; positions count from the start of data."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int, end: int):
        self.data = data
        self.pos = pos
        self.end = end

    def remaining(self) -> int:
        return self.end - self.pos

    def read(self, n: int) -> bytes:
        if self.remaining() < n:
            raise SMFParseError(f"unexpected end of data (wanted {n} bytes)", self.pos)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def read_u8(self) -> int:
        return self.read(1)[0]

    def read_vlq(self) -> int:
        value = 0
        for _ in range(4):
            b = self.read_u8()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise SMFParseError("variable-length quantity longer than 4 bytes", self.pos)


def parse_smf(data: bytes) -> NoteSequence:
    """Parse SMF bytes (format 0 or 1) into a NoteSequence.

    Note-on/note-off pairs are matched FIFO per (channel, pitch); a note-on
    with velocity 0 counts as a note-off. The note switches of all tracks
    are merged by absolute tick, ties in track order, before they are
    paired. Tempo, time-signature and controller-64 (sustain) events go
    straight to the NoteSequence, whose stable sort by tick lets the later
    track's tempo or signature win at one tick. A note-on left open at end
    of file is closed at the final tick with a warning.
    """
    if len(data) < 14:
        raise SMFParseError("file too short for MThd header", 0)
    magic, header_len, fmt, n_tracks, division = struct.unpack_from(">4sIHHH", data)
    if magic != b"MThd":
        raise SMFParseError("missing MThd chunk", 0)
    if header_len < 6:
        raise SMFParseError(f"MThd length {header_len} < 6", 4)
    r = _Reader(data, 14, len(data))
    r.read(header_len - 6)
    if fmt not in (0, 1):
        raise SMFParseError(f"unsupported SMF format {fmt}", 8)
    if division & 0x8000:
        raise SMFParseError("SMPTE time division is not supported", 12)
    if division == 0:
        raise SMFParseError("zero ticks per quarter note", 12)

    # (tick, channel, pitch, velocity) rows, velocity 0 for a note-off
    switches: list[tuple[int, int, int, int]] = []
    tempi: list[TempoEvent] = []
    sigs: list[TimeSignatureEvent] = []
    sustain: list[tuple[int, int]] = []
    final_tick = 0
    for track_idx in range(n_tracks):
        if r.remaining() < 8:
            raise SMFParseError(f"expected track {track_idx} chunk", r.pos)
        chunk_start = r.pos
        chunk_type, chunk_len = struct.unpack_from(">4sI", data, chunk_start)
        if chunk_type != b"MTrk":
            raise SMFParseError(f"expected MTrk, got {chunk_type!r}", chunk_start)
        base = chunk_start + 8
        if len(data) - base < chunk_len:
            raise SMFParseError("track chunk extends past end of file", chunk_start)
        r.pos = base + chunk_len
        tick = _parse_track(_Reader(data, base, r.pos), switches, tempi, sigs, sustain)
        final_tick = max(final_tick, tick)

    # the stable sort on the tick alone merges the tracks in track order
    switches.sort(key=lambda row: row[0])
    notes: list[NoteEvent] = []
    open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for tick, channel, pitch, velocity in switches:
        queue = open_notes.setdefault((channel, pitch), [])
        if velocity:
            queue.append((tick, velocity))
        elif queue:
            onset, velocity = queue.pop(0)
            notes.append(NoteEvent(onset, max(1, tick - onset), pitch, velocity, channel))
        # a note-off without a matching note-on is silently dropped

    for (channel, pitch), queue in sorted(open_notes.items()):
        for onset, velocity in queue:
            warnings.warn(
                f"note-on (pitch {pitch}, channel {channel}, tick {onset}) left open; "
                f"closed at final tick {final_tick}",
                SMFWarning,
                stacklevel=2,
            )
            notes.append(NoteEvent(onset, max(1, final_tick - onset), pitch, velocity, channel))

    return NoteSequence(
        ppq=division,
        notes=tuple(notes),
        tempi=tuple(tempi),
        time_signatures=tuple(sigs),
        sustain_events=tuple(sustain),
    )


def _parse_track(body: _Reader, switches: list, tempi: list, sigs: list, sustain: list) -> int:
    """Append one track's events to the lists; returns its final tick."""
    tick = 0
    running_status = None
    while body.remaining() > 0:
        tick += body.read_vlq()
        status = body.read_u8()
        if status < 0x80:
            if running_status is None:
                raise SMFParseError("data byte with no running status", body.pos - 1)
            body.pos -= 1
            status = running_status

        if status == 0xFF:
            meta_type = body.read_u8()
            length = body.read_vlq()
            payload = body.read(length)
            running_status = None
            if meta_type == 0x51:
                if length != 3 or not any(payload):
                    raise SMFParseError("tempo meta event must carry 3 bytes, not all zero",
                                        body.pos)
                tempi.append(TempoEvent(tick, int.from_bytes(payload, "big")))
            elif meta_type == 0x58:
                if length < 2 or payload[0] < 1 or payload[1] > 6:
                    raise SMFParseError("time signature meta event too short or out of range",
                                        body.pos)
                sigs.append(TimeSignatureEvent(tick, payload[0], payload[1]))
            elif meta_type == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            length = body.read_vlq()
            body.read(length)
            running_status = None
        elif status >= 0xF0:
            raise SMFParseError(f"unsupported system message 0x{status:02X}", body.pos - 1)
        else:
            running_status = status
            kind = status & 0xF0
            data = body.read(1 if kind in (0xC0, 0xD0) else 2)
            for k, byte in enumerate(data):
                if byte & 0x80:
                    raise SMFParseError(f"data byte 0x{byte:02X} has the high bit set",
                                        body.pos - len(data) + k)
            if kind in (0x80, 0x90):
                switches.append((tick, status & 0x0F, data[0], data[1] if kind == 0x90 else 0))
            elif kind == 0xB0 and data[0] == SUSTAIN_CONTROLLER:
                sustain.append((tick, data[1]))
    return tick


# ---------------------------------------------------------------------------
# Writing

def _encode_vlq(value: int) -> bytes:
    if value < 0 or value > MAX_VLQ:
        raise ValueError(f"tick delta {value} outside 32-bit variable-length range")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def write_smf(seq: NoteSequence) -> bytes:
    """Serialize to a format-1 SMF: conductor track + one note track.

    parse_smf(write_smf(x)) reproduces x's notes, tempi, time signatures and
    sustain events exactly, provided same-pitch overlaps (if any) are
    FIFO-consistent (earlier onset releases first).
    """
    conductor = []
    for ev in seq.tempi:
        conductor.append((ev.tick, 0, b"\xff\x51\x03" + ev.microseconds_per_quarter.to_bytes(3, "big")))
    for ev in seq.time_signatures:
        conductor.append((ev.tick, 1, bytes([0xFF, 0x58, 0x04, ev.numerator, ev.denominator_log2, 24, 8])))

    channel_events = []
    for note in seq.notes:
        # offs sort before ons at the same tick so back-to-back same-pitch
        # notes re-parse with their original boundaries
        channel_events.append((note.offset_ticks, 0, bytes([0x80 | note.channel, note.pitch, 0])))
        channel_events.append((note.onset_ticks, 1, bytes([0x90 | note.channel, note.pitch, note.velocity])))
    for tick, value in seq.sustain_events:
        channel_events.append((tick, 2, bytes([0xB0, SUSTAIN_CONTROLLER, value])))

    header = struct.pack(">4sIHHH", b"MThd", 6, 1, 2, seq.ppq)
    return header + _encode_track(conductor) + _encode_track(channel_events)


def _encode_track(events: list[tuple[int, int, bytes]]) -> bytes:
    events = sorted(events, key=lambda e: (e[0], e[1]))
    body = bytearray()
    prev_tick = 0
    for tick, _, payload in events:
        body += _encode_vlq(tick - prev_tick)
        body += payload
        prev_tick = tick
    body += _encode_vlq(0) + b"\xff\x2f\x00"
    return struct.pack(">4sI", b"MTrk", len(body)) + bytes(body)


# ---------------------------------------------------------------------------
# Time arithmetic

def ticks_to_seconds(seq: NoteSequence, ticks: np.ndarray) -> np.ndarray:
    """Piecewise-linear conversion of an int array of absolute ticks through
    the tempo map, to a float array of its shape.

    The whole tempo spans before a tick are summed in map order, then its
    partial span is added: the float operations, in their order, of a walk
    over the map from its start.
    """
    ticks = np.asarray(ticks)
    if (ticks < 0).any():
        raise ValueError("tick must be >= 0")
    tempi = seq.effective_tempi()
    starts = np.array([ev.tick for ev in tempi])
    us = np.array([ev.microseconds_per_quarter for ev in tempi])
    at_start = np.cumsum(np.concatenate(([0.0], np.diff(starts) / seq.ppq * us[:-1] / 1e6)))
    k = np.searchsorted(starts, ticks, side="right") - 1
    return at_start[k] + (ticks - starts[k]) / seq.ppq * us[k] / 1e6


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def resample_grid(seq: NoteSequence) -> NoteSequence:
    """Rescale all tick values onto the TICKS_PER_BEAT grid (quarter note = beat).

    Onsets and durations are scaled by TICKS_PER_BEAT/ppq with round-half-up;
    durations are clamped to >= 1. Tempo, time-signature, and sustain ticks
    are rescaled the same way so bar arithmetic stays consistent. A sequence
    already on the grid is returned as it is.
    """
    if seq.ppq == TICKS_PER_BEAT:
        return seq
    scale = TICKS_PER_BEAT / seq.ppq
    notes = tuple(
        NoteEvent(
            onset_ticks=_round_half_up(n.onset_ticks * scale),
            duration_ticks=max(1, _round_half_up(n.duration_ticks * scale)),
            pitch=n.pitch,
            velocity=n.velocity,
            channel=n.channel,
        )
        for n in seq.notes
    )
    tempi = tuple(replace(e, tick=_round_half_up(e.tick * scale)) for e in seq.tempi)
    sigs = tuple(replace(e, tick=_round_half_up(e.tick * scale)) for e in seq.time_signatures)
    sustain = tuple((_round_half_up(t * scale), v) for t, v in seq.sustain_events)
    return NoteSequence(TICKS_PER_BEAT, notes, tempi, sigs, sustain)
