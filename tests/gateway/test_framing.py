"""Incremental frame assembly: chunk boundaries, ceilings, poisoning."""

import pytest

from repro.errors import FrameError, MimeError
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message


def frame(body: bytes = b"payload", session: str | None = None) -> bytes:
    message = MimeMessage("text/plain", body)
    if session is not None:
        message.headers.session = session
    return serialize_message(message)


def tampered(raw: bytes, length_value: str) -> bytes:
    """The frame with its Content-Length header rewritten."""
    head, _, body = raw.partition(b"\n\n")
    lines = []
    for line in head.split(b"\n"):
        if line.lower().startswith(b"content-length:"):
            line = b"Content-Length: " + length_value.encode()
        lines.append(line)
    return b"\n".join(lines) + b"\n\n" + body


class TestReassembly:
    def test_whole_frame_in_one_chunk(self):
        asm = FrameAssembler()
        (message,) = asm.feed(frame(b"hello"))
        assert message.body == b"hello"
        assert asm.frames_out == 1

    def test_byte_at_a_time(self):
        raw = frame(b"drip-fed body", session="sess-7")
        asm = FrameAssembler()
        collected = []
        for i in range(len(raw)):
            collected += asm.feed(raw[i : i + 1])
        assert len(collected) == 1
        assert collected[0].body == b"drip-fed body"
        assert collected[0].session == "sess-7"
        assert asm.bytes_in == len(raw)

    def test_many_frames_in_one_chunk(self):
        raw = b"".join(frame(f"m{i}".encode()) for i in range(5))
        asm = FrameAssembler()
        messages = asm.feed(raw)
        assert [m.body for m in messages] == [f"m{i}".encode() for i in range(5)]

    def test_frame_split_across_chunks_with_trailing_start(self):
        a, b = frame(b"first"), frame(b"second")
        raw = a + b
        cut = len(a) + 3  # mid-headers of the second frame
        asm = FrameAssembler()
        first = asm.feed(raw[:cut])
        second = asm.feed(raw[cut:])
        assert [m.body for m in first] == [b"first"]
        assert [m.body for m in second] == [b"second"]

    def test_empty_chunk_is_harmless(self):
        asm = FrameAssembler()
        assert asm.feed(b"") == []


class TestRejection:
    def test_negative_length(self):
        asm = FrameAssembler()
        with pytest.raises(MimeError, match="negative"):
            asm.feed(tampered(frame(), "-5"))

    def test_unparseable_length(self):
        asm = FrameAssembler()
        with pytest.raises(MimeError, match="Content-Length"):
            asm.feed(tampered(frame(), "banana"))

    def test_declared_length_beyond_ceiling_rejected_before_buffering(self):
        asm = FrameAssembler(max_frame_bytes=1024)
        # only the headers are fed: the declaration alone must be enough
        head = tampered(frame(), "1000000").partition(b"\n\n")[0] + b"\n\n"
        with pytest.raises(MimeError, match="ceiling"):
            asm.feed(head)

    def test_header_block_ceiling(self):
        asm = FrameAssembler(max_header_bytes=64)
        message = MimeMessage("text/plain", b"x")
        message.headers.set("X-Padding", "p" * 200)
        with pytest.raises(MimeError, match="header"):
            asm.feed(serialize_message(message))

    def test_unterminated_header_growth_is_bounded(self):
        asm = FrameAssembler(max_header_bytes=128)
        with pytest.raises(MimeError, match="header"):
            for _ in range(64):  # never sends the blank line
                asm.feed(b"X-Run-On: aaaaaaaaaaaaaaaa\n")

    def test_error_poisons_the_assembler(self):
        asm = FrameAssembler()
        with pytest.raises(MimeError):
            asm.feed(tampered(frame(), "-1"))
        with pytest.raises(MimeError):
            asm.feed(frame(b"fine frame, broken stream"))

    def test_frames_before_a_malformed_one_in_the_same_chunk_are_handed_back(self):
        asm = FrameAssembler()
        with pytest.raises(FrameError, match="negative") as raised:
            asm.feed(frame(b"good") + tampered(frame(), "-1"))
        assert [m.body for m in raised.value.frames] == [b"good"]
        assert asm.frames_out == 1
        with pytest.raises(FrameError) as again:  # still poisoned
            asm.feed(frame(b"after"))
        assert again.value.frames == []
