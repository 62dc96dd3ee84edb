"""Chunking-invariance of the incremental frame parser.

The gateway reads whatever the socket hands it, so
:class:`~repro.mime.wire.FrameAssembler` must reproduce exactly what
:func:`~repro.mime.wire.parse_message` would see, for *every* possible
chunking of the byte stream.  Two angles:

* exhaustively — split the serialized frame at **every byte offset**
  (headers, multipart boundaries, length-prefixed part payloads, raster
  and PostScript codec payloads all get cut mid-structure);
* generatively — hypothesis draws random multi-cut chunkings and
  interleavings of several frames on one stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.imagefmt import ImageRaster
from repro.codecs.psdoc import PsDocument
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, parse_message, serialize_message
from repro.workloads.content import (
    ps_page_message,
    synthetic_image_message,
    synthetic_ps_message,
    web_page_message,
)


def _equivalent(a: MimeMessage, b: MimeMessage) -> bool:
    if a.content_type.essence != b.content_type.essence:
        return False
    if a.is_multipart != b.is_multipart:
        return False
    if a.is_multipart:
        return len(a.parts) == len(b.parts) and all(
            _equivalent(x, y) for x, y in zip(a.parts, b.parts)
        )
    if isinstance(a.body, (ImageRaster, PsDocument)):
        return type(a.body) is type(b.body) and a.body == b.body
    if a.body in (None, b"") and b.body in (None, b""):
        return True
    return a.body == b.body


def _plain_message() -> MimeMessage:
    message = MimeMessage("text/plain", b"short body with\n\nblank lines")
    message.headers.session = "sess-42"
    message.headers.set("X-Probe", "v1")
    return message


def _raster_message() -> MimeMessage:
    return MimeMessage("image/gif", ImageRaster.synthetic(12, 8, seed=3))


def _psdoc_message() -> MimeMessage:
    return synthetic_ps_message(paragraphs=1, seed=5)


def _multipart_message() -> MimeMessage:
    inner = MimeMessage.multipart(
        [MimeMessage("text/plain", "unicode häder\n"), _raster_message()]
    )
    return MimeMessage.multipart([_plain_message(), inner])


@pytest.mark.parametrize(
    "build",
    [_plain_message, _raster_message, _psdoc_message, _multipart_message],
    ids=["headers", "raster", "psdoc", "multipart"],
)
def test_every_byte_offset_split(build):
    original = build()
    raw = serialize_message(original)
    reference = parse_message(raw)
    for cut in range(len(raw) + 1):
        asm = FrameAssembler()
        messages = asm.feed(raw[:cut]) + asm.feed(raw[cut:])
        assert len(messages) == 1, f"cut at {cut} yielded {len(messages)} frames"
        rebuilt = messages[0]
        assert _equivalent(rebuilt, reference), f"cut at {cut} corrupted the frame"
        assert rebuilt.session == original.session
        assert asm.pending_bytes == 0


_big_messages = st.sampled_from([
    synthetic_image_message(32, 24, seed=1),
    ps_page_message(n_images=1, paragraphs=2, image_size=(16, 12), seed=2),
    web_page_message(n_images=2, text_bytes=512, image_size=(16, 12), seed=3),
])


@settings(deadline=None, max_examples=60)
@given(
    st.lists(_big_messages, min_size=1, max_size=3),
    # scale-free cut positions: serialization length varies run-to-run
    # (multipart boundaries are regenerated), so draw fractions of it
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
)
def test_random_chunkings_of_a_frame_stream(messages, fractions):
    raw = b"".join(serialize_message(m) for m in messages)
    cuts = sorted(int(f * len(raw)) for f in fractions)
    bounds = [0, *cuts, len(raw)]
    asm = FrameAssembler()
    rebuilt = []
    for lo, hi in zip(bounds, bounds[1:]):
        rebuilt += asm.feed(raw[lo:hi])
    assert len(rebuilt) == len(messages)
    for got, want in zip(rebuilt, messages):
        assert _equivalent(got, want)
    assert asm.pending_bytes == 0


# -- the receive-buffer contract -----------------------------------------------
#
# The data plane hands the kernel ONE buffer for every read of every
# connection, so ``feed`` must take what it needs out of the chunk before it
# returns: nothing it yields, and nothing it keeps for the next read, may
# alias memory the caller is about to overwrite.


class _ReusedBuffer:
    """Feeds an assembler the way the data plane does, then scribbles."""

    def __init__(self, asm: FrameAssembler, *, as_view: bool):
        self.asm = asm
        self.as_view = as_view
        self.buffer = bytearray(64)

    def feed(self, data: bytes) -> list[MimeMessage]:
        buffer = self.buffer
        if self.as_view:
            if len(buffer) < len(data):
                self.buffer = buffer = bytearray(len(data))
            buffer[: len(data)] = data
            with memoryview(buffer) as view:
                messages = self.asm.feed(view[: len(data)])
        else:
            # resizing in place raises BufferError if a view of the
            # previous chunk is still alive anywhere
            buffer[:] = data
            messages = self.asm.feed(buffer)
        buffer[:] = b"\xff" * len(buffer)
        return messages


@pytest.mark.parametrize("as_view", [False, True], ids=["bytearray", "memoryview"])
def test_every_split_of_two_frames_through_a_reused_buffer(as_view):
    first, second = _plain_message(), _plain_message()
    second.set_body(b"the second body\n\n" * 3)
    second.headers.set("X-Probe", "v2")
    raw = serialize_message(first) + serialize_message(second)
    for cut in range(len(raw) + 1):  # mid-header and mid-body of either frame
        feeder = _ReusedBuffer(FrameAssembler(), as_view=as_view)
        messages = feeder.feed(raw[:cut]) + feeder.feed(raw[cut:])
        assert [m.body for m in messages] == [first.body, second.body], f"cut at {cut}"
        assert all(type(m.body) is bytes for m in messages)
        assert [serialize_message(m) for m in messages] == [
            serialize_message(first), serialize_message(second)
        ], f"cut at {cut}"
        assert feeder.asm.pending_bytes == 0


@settings(deadline=None, max_examples=60)
@given(
    st.lists(_big_messages, min_size=1, max_size=3),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
    st.booleans(),
)
def test_random_chunkings_through_a_reused_buffer(messages, fractions, as_view):
    raw = b"".join(serialize_message(m) for m in messages)
    cuts = sorted(int(f * len(raw)) for f in fractions)
    bounds = [0, *cuts, len(raw)]
    feeder = _ReusedBuffer(FrameAssembler(), as_view=as_view)
    rebuilt = []
    for lo, hi in zip(bounds, bounds[1:]):
        rebuilt += feeder.feed(raw[lo:hi])
    assert len(rebuilt) == len(messages)
    for got, want in zip(rebuilt, messages):  # in order
        assert _equivalent(got, want)
    assert feeder.asm.pending_bytes == 0
    assert feeder.asm.bytes_in == len(raw) and feeder.asm.frames_out == len(messages)
