"""The frame assembler's head cache: each distinct header block is parsed once.

:class:`~repro.mime.wire.FrameAssembler` maps the exact bytes of every
header block it has validated to the parsed headers (their memo warmed)
and the frame's Content-Length; a frame whose block it has seen gets a
copy.  These tests hold the cache to four promises:

* a cached frame is the frame :func:`~repro.mime.wire.parse_message`
  gives, however the stream is cut, through a receive buffer that is
  overwritten after every read;
* a message is its own: stamping one changes neither a later frame with
  the same head nor the cached template;
* a head that fails validation raises every time and is never kept;
* the cache keeps at most :data:`~repro.mime.wire.HEAD_CACHE_BYTES` of
  header blocks, and never one larger than that.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError
from repro.mime.wire import HEAD_CACHE_BYTES, FrameAssembler, parse_message

#: a few envelopes a peer repeats, each with the body length it declares
_HEADS = [
    (b"Content-Type: application/octet-stream\nContent-Session: s1\n", 32),
    (b"Content-Type: application/octet-stream\nContent-Session: s2;epoch=3\n", 7),
    (b"Content-Type: text/plain; charset=utf-8\nContent-Session: s3\n"
     b"X-MobiGATE-Payload: text\n", 12),
    (b"Content-Session: s1\nX-MobiGATE-Peers: a,b\nContent-Trace: t-1;sp-2\n"
     b"content-type: image/gif\n", 0),
]


def _frame(head: int, fill: int) -> bytes:
    block, length = _HEADS[head]
    body = bytes([0x61 + fill % 26]) * length  # ASCII, so the text kind decodes
    return block + b"Content-Length: %d\n\n" % length + body


def _views(message) -> tuple:
    headers = message.headers
    return (
        list(headers), headers.session, headers.epoch, headers.content_type,
        headers.encoded(), message.body,
    )


class _ReusedBuffer:
    """Feeds one buffer the way the data plane does, scribbling after each read."""

    def __init__(self, asm: FrameAssembler):
        self.asm = asm
        self.buffer = bytearray(1 << 16)

    def feed(self, data: bytes) -> list:
        self.buffer[: len(data)] = data
        with memoryview(self.buffer) as view:
            messages = self.asm.feed(view[: len(data)])
        self.buffer[: len(data)] = b"\xff" * len(data)
        return messages


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.tuples(st.integers(0, len(_HEADS) - 1), st.integers(0, 25)),
             min_size=2, max_size=16),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=10),
    st.data(),
)
def test_every_cached_frame_is_what_a_fresh_parse_gives(picks, fractions, data):
    frames = [_frame(head, fill) for head, fill in picks]
    raw = b"".join(frames)
    # one cut always falls inside a header block, so a head straddles reads
    straddled = data.draw(st.integers(0, len(frames) - 1))
    start = sum(len(f) for f in frames[:straddled])
    head_len = frames[straddled].index(b"\n\n") + 2
    cuts = {start + data.draw(st.integers(1, head_len - 1))}
    cuts.update(int(f * len(raw)) for f in fractions)
    bounds = [0, *sorted(cuts), len(raw)]
    feeder = _ReusedBuffer(FrameAssembler())
    got = []
    for lo, hi in zip(bounds, bounds[1:]):
        got += feeder.feed(raw[lo:hi])
    assert [_views(m) for m in got] == [_views(parse_message(f)) for f in frames]
    assert len(feeder.asm._heads) == len({head for head, _ in picks})
    assert feeder.asm.pending_bytes == 0


def test_a_cached_frame_carries_the_warmed_memo_in_its_own_dict():
    asm = FrameAssembler()
    first, second = asm.feed(_frame(0, 1) + _frame(0, 2))
    (template, length), = asm._heads.values()
    assert length == 32
    for message in (first, second):
        memo = message.headers._memo
        assert {"session", "content_type", "wire"} <= memo.keys()
        assert memo is not template._memo
    assert first.headers._memo is not second.headers._memo


def test_stamping_a_message_changes_neither_a_later_frame_nor_the_template():
    asm = FrameAssembler()
    (first,) = asm.feed(_frame(1, 0))
    (template, _length), = asm._heads.values()
    pristine = (list(template), template.encoded(), dict(template._memo))
    first.headers.set_epoch(9)
    first.headers.push_peer("peer-x")
    first.headers.set_trace("trace-1", "span-1")
    first.headers.origin = ("conn-1", 1.0)
    assert first.headers.epoch == 9 and first.headers.peer_stack() == ["peer-x"]
    assert b"peer-x" in first.headers.encoded()
    (later,) = asm.feed(_frame(1, 0))
    assert _views(later) == _views(parse_message(_frame(1, 0)))
    assert later.headers.origin is None and later.headers.peer_stack() == []
    assert (list(template), template.encoded(), dict(template._memo)) == pristine


_TAIL = b"Content-Type: text/plain\nContent-Session: s\n"

_BAD_HEADS = {
    "negative length": _TAIL + b"Content-Length: -1\n\n",
    "non-numeric length": _TAIL + b"Content-Length: many\n\n",
    "no length": _TAIL + b"\n",
    "over the frame ceiling": _TAIL + b"Content-Length: 4097\n\n" + bytes(4097),
    "no colon": _TAIL + b"garbage line\nContent-Length: 0\n\n",
    "not UTF-8": _TAIL + b"X-Bad: \xff\xfe\nContent-Length: 0\n\n",
    "oversized head": b"X-Pad: " + b"p" * 8192 + b"\nContent-Length: 0\n\n",
    "bad media type": b"Content-Type: text/a/b\nContent-Length: 0\n\n",
}


@pytest.mark.parametrize("bad", sorted(_BAD_HEADS))
def test_a_bad_head_raises_every_time_and_is_never_kept(bad):
    good = _frame(0, 0)
    for _ in range(3):
        asm = FrameAssembler(max_frame_bytes=4096, max_header_bytes=4096)
        with pytest.raises(FrameError) as caught:
            asm.feed(good + _BAD_HEADS[bad])
        assert [_views(m) for m in caught.value.frames] == [_views(parse_message(good))]
        assert list(asm._heads) == [good[: good.index(b"\n\n")]]
        with pytest.raises(FrameError):
            asm.feed(good)  # framing is lost: the assembler stays poisoned


def test_a_peer_cycling_distinct_heads_stays_within_the_budget():
    asm = FrameAssembler()
    for batch in range(250):
        chunk = b"".join(
            b"Content-Type: application/octet-stream\nContent-Session: churn-%d\n"
            b"Content-Length: 3\n\nabc" % (batch * 12 + i)
            for i in range(12)
        )
        messages = asm.feed(chunk)
        assert [m.session for m in messages] == [f"churn-{batch * 12 + i}" for i in range(12)]
        assert asm._head_bytes == sum(len(key) for key in asm._heads)
        assert asm._head_bytes <= HEAD_CACHE_BYTES


def test_a_head_larger_than_the_budget_is_parsed_every_time():
    frame = (b"Content-Type: text/plain\nX-Pad: " + b"p" * HEAD_CACHE_BYTES
             + b"\nContent-Length: 2\n\nok")
    asm = FrameAssembler()
    messages = asm.feed(frame * 2)
    assert [_views(m) for m in messages] == [_views(parse_message(frame))] * 2
    assert asm._heads == {} and asm._head_bytes == 0
