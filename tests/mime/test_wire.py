import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.imagefmt import ImageRaster
from repro.codecs.psdoc import PsDocument
from repro.errors import MimeError
from repro.mime.message import MimeMessage
from repro.mime.wire import parse_message, serialize_message, serialize_parts
from repro.workloads.content import (
    ps_page_message,
    synthetic_image_message,
    synthetic_ps_message,
    web_page_message,
)


def roundtrip(message):
    return parse_message(serialize_message(message))


class TestScalarBodies:
    def test_bytes(self):
        msg = MimeMessage("text/plain", b"hello\nworld\n\nwith blank lines")
        out = roundtrip(msg)
        assert out.body == msg.body
        assert out.content_type == msg.content_type

    def test_binary_safe(self):
        payload = bytes(range(256)) * 4
        out = roundtrip(MimeMessage("application/octet-stream", payload))
        assert out.body == payload

    def test_str_payload(self):
        out = roundtrip(MimeMessage("text/plain", "héllo ünïcode"))
        assert out.body == "héllo ünïcode"
        assert isinstance(out.body, str)

    def test_empty_body(self):
        out = roundtrip(MimeMessage("text/plain", b""))
        assert out.body == b""

    def test_none_body(self):
        out = roundtrip(MimeMessage("text/plain", None))
        assert out.body == b""  # None flattens to empty bytes on the wire

    def test_headers_preserved(self):
        msg = MimeMessage("text/plain", b"x", session="sess-9")
        msg.headers.push_peer("decryptor")
        msg.headers.set("X-Custom", "value")
        out = roundtrip(msg)
        assert out.session == "sess-9"
        assert out.headers.peer_stack() == ["decryptor"]
        assert out.headers.get("X-Custom") == "value"


class TestStructuredBodies:
    def test_raster(self):
        raster = ImageRaster.synthetic(33, 21, seed=4)
        out = roundtrip(MimeMessage("image/gif", raster))
        assert isinstance(out.body, ImageRaster)
        assert out.body == raster

    def test_psdoc(self):
        msg = synthetic_ps_message(3, seed=5)
        out = roundtrip(msg)
        assert isinstance(out.body, PsDocument)
        assert out.body == msg.body

    def test_payload_marker_not_leaked(self):
        out = roundtrip(MimeMessage("image/gif", ImageRaster.synthetic(8, 8)))
        assert "X-MobiGATE-Payload" not in out.headers


class TestMultipart:
    def test_web_page(self):
        page = web_page_message(n_images=2, text_bytes=512, seed=6)
        out = roundtrip(page)
        assert out.is_multipart
        assert len(out.parts) == 3
        for a, b in zip(out.parts, page.parts):
            assert a.body == b.body
            assert a.content_type.essence == b.content_type.essence

    def test_nested_multipart(self):
        inner = web_page_message(n_images=1, text_bytes=64, seed=7)
        outer = MimeMessage.multipart([inner, MimeMessage("text/plain", b"tail")])
        out = roundtrip(outer)
        assert out.parts[0].is_multipart
        assert len(out.parts[0].parts) == 2
        assert out.parts[1].body == b"tail"

    def test_ps_page(self):
        out = roundtrip(ps_page_message(n_images=1, paragraphs=2, seed=8))
        kinds = {p.content_type.essence for p in out.parts}
        assert kinds == {"application/postscript", "image/gif"}

    def test_boundary_not_leaked_into_type(self):
        out = roundtrip(web_page_message(n_images=0, text_bytes=32, seed=9))
        assert out.content_type.param("boundary") is None


class TestParts:
    """``serialize_message`` is the join of ``serialize_parts``, for every payload kind."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MimeMessage("application/octet-stream", bytes(range(256)) * 3, session="s-1"),
            lambda: MimeMessage("text/plain", "héllo ünïcode"),
            lambda: MimeMessage("text/plain", None),
            lambda: MimeMessage("image/gif", ImageRaster.synthetic(12, 8, seed=3)),
            lambda: synthetic_ps_message(paragraphs=1, seed=5),
        ],
        ids=["bytes", "str", "none", "raster", "psdoc"],
    )
    def test_head_plus_payload_is_the_frame(self, build):
        message = build()
        head, payload = serialize_parts(message)
        assert head.endswith(b"\n\n") and b"\n\n" not in head[:-2]
        assert type(head) is bytes and type(payload) is bytes
        assert head + payload == serialize_message(message)
        assert f"Content-Length: {len(payload)}".encode() in head

    def test_multipart_parts(self):
        # the boundary is generated per serialisation: compare through the parser
        page = web_page_message(n_images=1, text_bytes=64, seed=10)
        head, payload = serialize_parts(page)
        rebuilt = parse_message(head + payload)
        assert rebuilt.is_multipart and len(rebuilt.parts) == len(page.parts)
        # each serialisation draws a new boundary, whose serial may gain a
        # digit in between and so move the outer head's Content-Length:
        # past the outer head, the frames are equal but for the boundary
        def body(frame):
            return re.sub(rb"mgbd-\d+", b"mgbd", frame.split(b"\n\n", 1)[1])

        assert body(head + payload) == body(serialize_message(page))

    def test_a_bytes_body_is_the_payload_itself(self):
        message = MimeMessage("application/octet-stream", b"x" * 70_000)
        assert serialize_parts(message)[1] is message.body
        message.stamp_length()  # the envelope already says everything: same answer
        assert serialize_parts(message)[1] is message.body


class TestErrors:
    def test_no_terminator(self):
        with pytest.raises(MimeError):
            parse_message(b"Content-Type: text/plain")

    def test_header_block_that_is_not_utf8(self):
        with pytest.raises(MimeError, match="UTF-8"):
            parse_message(b"Content-Type: text/plain\nX-Bad: \xff\xfe\nContent-Length: 0\n\n")

    def test_missing_content_type(self):
        with pytest.raises(MimeError):
            parse_message(b"X-Other: 1\n\nbody")

    def test_missing_length(self):
        with pytest.raises(MimeError):
            parse_message(b"Content-Type: text/plain\n\nbody")

    def test_length_mismatch(self):
        with pytest.raises(MimeError):
            parse_message(b"Content-Type: text/plain\nContent-Length: 99\n\nshort")

    def test_bad_length(self):
        with pytest.raises(MimeError):
            parse_message(b"Content-Type: text/plain\nContent-Length: nan\n\n")

    def test_unknown_payload_kind(self):
        wire = (
            b"Content-Type: text/plain\nX-MobiGATE-Payload: alien\n"
            b"Content-Length: 1\n\nz"
        )
        with pytest.raises(MimeError):
            parse_message(wire)

    @pytest.mark.parametrize("kind, payload", [
        ("text", b"\xff\xfe"),
        ("psdoc", b"\xff\xfe"),
        ("psdoc", b"frobnicate 1 2\n"),
        ("raster", b"\x01\x00"),
    ])
    def test_a_structured_payload_that_does_not_decode(self, kind, payload):
        # a MimeError, so an assembler turns it into a FrameError
        wire = (
            f"Content-Type: text/plain\nX-MobiGATE-Payload: {kind}\n"
            f"Content-Length: {len(payload)}\n\n"
        ).encode() + payload
        with pytest.raises(MimeError):
            parse_message(wire)

    def test_truncated_multipart(self):
        page = web_page_message(n_images=1, text_bytes=64, seed=10)
        wire = serialize_message(page)
        with pytest.raises(MimeError):
            parse_message(wire[:-10] + b"Content-Length" )  # mangled tail

    def test_unsupported_payload_type(self):
        msg = MimeMessage("text/plain", b"")
        msg.body = 3.14  # bypass validation deliberately
        with pytest.raises(MimeError):
            serialize_message(msg)


@settings(deadline=None, max_examples=60)
@given(st.binary(max_size=4096), st.text(max_size=40).filter(lambda s: "\n" not in s and "\r" not in s))
def test_roundtrip_property(payload, header_value):
    msg = MimeMessage("application/octet-stream", payload)
    if header_value.strip():
        msg.headers.set("X-Fuzz", header_value)
    out = roundtrip(msg)
    assert out.body == payload
    assert out.headers.get("X-Fuzz", "").strip() == msg.headers.get("X-Fuzz", "").strip()


class TestEndToEndOverWire:
    def test_client_parses_wire_bytes(self):
        """The full §3.4.1 story: server output serialised, client parses."""
        from repro.apps import build_server
        from repro.client.client import MobiGateClient
        from repro.runtime.scheduler import InlineScheduler

        server = build_server()
        stream = server.deploy_script("""
main stream secure{
  streamlet comp = new-streamlet (text_compress);
  streamlet enc = new-streamlet (encryptor);
  connect (comp.po, enc.pi);
}
""")
        scheduler = InlineScheduler(stream)
        original = b"the quick brown fox " * 50
        stream.post(MimeMessage("text/plain", original))
        scheduler.pump()
        [processed] = stream.collect()

        wire_bytes = serialize_message(processed)      # what crosses the air
        received = parse_message(wire_bytes)           # what the client sees
        [delivered] = MobiGateClient().receive(received)
        assert delivered.body == original
