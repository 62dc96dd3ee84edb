"""What a redirector hop does to an envelope: re-stamps, carried views, wire bytes.

``stamp_length`` returns before ``HeaderMap.set`` when the message
already carries its length under the canonical name, and a header write
keeps every memoised view the written field cannot change.  Neither may
change a byte on the wire.
"""

import pytest

from repro.mime.headers import CONTENT_LENGTH, HeaderMap
from repro.mime.message import MimeMessage
from repro.mime.wire import parse_message, serialize_message
from repro.runtime.streamlet import ForwardingStreamlet, StreamletContext
from repro.streamlets.basic import REDIRECTOR_DEF


def redirect(message: MimeMessage) -> MimeMessage:
    [(port, out)] = ForwardingStreamlet("r", REDIRECTOR_DEF).process(
        "pi", message, StreamletContext("r")
    )
    assert port == "po"
    return out


class TestStampLength:
    def test_a_stale_value_is_rewritten(self):
        message = MimeMessage("text/plain", b"1234567")
        message.headers.set(CONTENT_LENGTH, "5")
        memo = message.headers._memo
        message.stamp_length()
        assert message.headers.get(CONTENT_LENGTH) == "7"
        assert message.headers._memo is not memo

    def test_a_lowercase_display_name_is_rewritten_to_the_canonical_one(self):
        message = MimeMessage("text/plain", b"1234567")
        message.headers.set("content-length", "7")
        message.stamp_length()
        assert ("Content-Length", "7") in list(message.headers)
        assert b"\nContent-Length: 7\n" in serialize_message(message)

    def test_an_unchanged_pair_leaves_the_memo_object_untouched(self):
        message = MimeMessage("text/plain", b"1234567", session="s-1")
        message.stamp_length()
        _ = message.content_type, message.session, message.headers.encoded()
        memo = message.headers._memo
        view = dict(memo)
        message.stamp_length()
        assert message.headers._memo is memo
        assert memo == view

    def test_a_first_stamp_adds_the_field(self):
        message = MimeMessage("text/plain", "héllo")
        message.stamp_length()
        assert message.headers.get(CONTENT_LENGTH) == "6"  # UTF-8 bytes


class TestCarriedViews:
    def memoised(self) -> tuple[HeaderMap, object]:
        headers = HeaderMap({"Content-Type": "text/plain; charset=utf-8",
                             "Content-Session": "s-1;epoch=3"})
        parsed = headers.content_type
        assert headers.session == "s-1" and headers.epoch == 3
        return headers, parsed

    @pytest.mark.parametrize("write", [
        lambda h: h.set_trace("trace-1", "span-2"),
        lambda h: h.push_peer("tc"),
        lambda h: h.set(CONTENT_LENGTH, "12"),
        lambda h: h.set("X-Free", "x"),
    ], ids=["trace", "peer", "length", "free"])
    def test_a_write_to_another_field_keeps_the_parsed_media_type(self, write):
        headers, parsed = self.memoised()
        write(headers)
        assert headers._memo["content_type"] is parsed
        assert headers.content_type is parsed
        assert (headers.session, headers.epoch) == ("s-1", 3)
        assert "block" not in headers._memo and "wire" not in headers._memo

    def test_a_peer_pop_keeps_the_parsed_media_type(self):
        headers, parsed = self.memoised()
        headers.push_peer("tc")
        headers.pop_peer()  # the last peer: a remove
        assert headers.content_type is parsed

    def test_a_content_type_write_drops_it(self):
        headers, parsed = self.memoised()
        headers.set("Content-Type", "image/gif")
        assert "content_type" not in headers._memo
        assert str(headers.content_type) == "image/gif"
        assert headers.session == "s-1" and "session" in headers._memo

    def test_a_content_session_write_drops_session_and_epoch(self):
        headers, parsed = self.memoised()
        headers.set_epoch(4)
        assert "session" not in headers._memo and "epoch" not in headers._memo
        assert headers.epoch == 4
        assert headers.content_type is parsed


#: the wire bytes these envelopes had before a re-stamp could skip `set`
PINNED = [
    b"Content-Type: text/plain; charset=utf-8\nContent-Session: s-1;epoch=2\n"
    b"Content-Length: 5\nContent-Trace: t1;p1\nX-MobiGATE-Peers: tc\n\nhello",
    b"Content-Type: application/octet-stream\nContent-Length: 4\n"
    b"Content-Session: s-2\n\nabcd",
    b"Content-Type: image/gif\nContent-Session: s-3\nContent-Length: 6\n"
    b"Content-Trace: t2\n\nGIF89a",
]


class TestWireBytes:
    def test_serialised_frames_are_byte_identical(self):
        stamped = MimeMessage("text/plain; charset=utf-8", b"hello", session="s-1;epoch=2")
        stamped.stamp_length()
        stamped.headers.set_trace("t1", "p1")
        stamped.headers.push_peer("tc")
        lowercase = redirect(parse_message(
            b"Content-Type: application/octet-stream\ncontent-length: 4\n"
            b"Content-Session: s-2\n\nabcd"
        ))
        stale = MimeMessage("image/gif", b"GIF89a", session="s-3")
        stale.headers.set(CONTENT_LENGTH, "99")
        stale.headers.set_trace("t2")
        stale = redirect(stale)
        assert [serialize_message(m) for m in (stamped, lowercase, stale)] == PINNED

    def test_a_hop_changes_no_byte(self):
        message = parse_message(PINNED[0])
        before = serialize_message(message)
        for _ in range(3):
            message = redirect(message)
        assert serialize_message(message) == before == PINNED[0]
