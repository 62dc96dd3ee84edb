import pytest

from repro.errors import HeaderError
from repro.mime.headers import CONTENT_SESSION, CONTENT_TYPE, PEER_STACK, HeaderMap
from repro.mime.mediatype import TEXT_PLAIN


class TestBasicMapping:
    def test_set_get(self):
        h = HeaderMap()
        h.set("Content-Type", "text/plain")
        assert h.get("Content-Type") == "text/plain"

    def test_case_insensitive(self):
        h = HeaderMap()
        h.set("Content-Type", "text/plain")
        assert h.get("content-type") == "text/plain"
        assert "CONTENT-TYPE" in h

    def test_set_replaces(self):
        h = HeaderMap()
        h.set("X", "1")
        h.set("x", "2")
        assert h.get("X") == "2"
        assert len(h) == 1

    def test_get_default(self):
        assert HeaderMap().get("Missing", "d") == "d"

    def test_require_missing_raises(self):
        with pytest.raises(HeaderError):
            HeaderMap().require("Nope")

    def test_remove(self):
        h = HeaderMap({"A": "1"})
        assert h.remove("a")
        assert not h.remove("a")
        assert len(h) == 0

    def test_init_dict(self):
        h = HeaderMap({"A": "1", "B": "2"})
        assert h.get("a") == "1" and h.get("b") == "2"

    def test_illegal_name_rejected(self):
        h = HeaderMap()
        for bad in ["", "Bad:Name", "Bad\nName"]:
            with pytest.raises(HeaderError):
                h.set(bad, "v")

    def test_newline_in_value_rejected(self):
        with pytest.raises(HeaderError):
            HeaderMap().set("A", "x\ny")

    def test_unencodable_name_or_value_rejected(self):
        h = HeaderMap({"A": "1"})
        for name, value in [("A", "lone \ud800 surrogate"), ("B\udfff", "v")]:
            with pytest.raises(HeaderError):
                h.set(name, value)
        assert h.get("A") == "1" and len(h) == 1  # a refused set changes nothing
        assert h.encoded() == b"A: 1"

    def test_non_ascii_utf8_value_accepted(self):
        h = HeaderMap()
        h.set("Subject", "héllo wörld")
        assert h.encoded() == "Subject: héllo wörld".encode("utf-8")

    def test_copy_is_independent(self):
        h = HeaderMap({"A": "1"})
        c = h.copy()
        c.set("A", "2")
        assert h.get("A") == "1"

    def test_equality_ignores_display_case(self):
        a = HeaderMap({"Content-Type": "x"})
        b = HeaderMap({"content-type": "x"})
        assert a == b


class TestTypedAccessors:
    def test_content_type_roundtrip(self):
        h = HeaderMap()
        h.content_type = TEXT_PLAIN
        assert h.content_type == TEXT_PLAIN
        assert h.get(CONTENT_TYPE) == "text/plain"

    def test_content_type_missing(self):
        assert HeaderMap().content_type is None

    def test_session(self):
        h = HeaderMap()
        h.session = "sess-9"
        assert h.session == "sess-9"
        assert h.get(CONTENT_SESSION) == "sess-9"


class TestPeerStack:
    def test_push_pop_lifo(self):
        h = HeaderMap()
        h.push_peer("compressor")
        h.push_peer("encryptor")
        assert h.pop_peer() == "encryptor"
        assert h.pop_peer() == "compressor"
        assert h.pop_peer() is None

    def test_stack_listing(self):
        h = HeaderMap()
        h.push_peer("a")
        h.push_peer("b")
        assert h.peer_stack() == ["a", "b"]

    def test_empty_stack(self):
        assert HeaderMap().peer_stack() == []

    def test_pop_removes_header_when_empty(self):
        h = HeaderMap()
        h.push_peer("only")
        h.pop_peer()
        assert PEER_STACK not in h

    def test_illegal_peer_id(self):
        h = HeaderMap()
        for bad in ["", "a,b", "  "]:
            with pytest.raises(HeaderError):
                h.push_peer(bad)


class TestWireFormat:
    def test_format_parse_roundtrip(self):
        h = HeaderMap()
        h.set("Content-Type", "text/plain; charset=utf-8")
        h.set("Content-Session", "sess-1")
        h.push_peer("decomp")
        parsed = HeaderMap.parse(h.format())
        assert parsed == h

    def test_parse_skips_blank_lines(self):
        parsed = HeaderMap.parse("A: 1\n\nB: 2\n")
        assert parsed.get("A") == "1" and parsed.get("B") == "2"

    def test_parse_missing_colon_raises(self):
        with pytest.raises(HeaderError):
            HeaderMap.parse("NoColonHere")

    def test_format_order_preserved(self):
        h = HeaderMap()
        h.set("Z", "1")
        h.set("A", "2")
        assert h.format().splitlines() == ["Z: 1", "A: 2"]


class TestStreamEpoch:
    """The reconfiguration extension: epochs ride on Content-Session."""

    def test_no_session_no_epoch(self):
        h = HeaderMap()
        assert h.epoch is None
        assert h.session is None

    def test_session_without_epoch(self):
        h = HeaderMap()
        h.set(CONTENT_SESSION, "sess-42")
        assert h.session == "sess-42"
        assert h.epoch is None

    def test_set_epoch_and_read_back(self):
        h = HeaderMap()
        h.set(CONTENT_SESSION, "sess-42")
        h.set_epoch(3)
        assert h.get(CONTENT_SESSION) == "sess-42;epoch=3"
        assert h.session == "sess-42"  # base id unchanged for old readers
        assert h.epoch == 3

    def test_set_epoch_replaces_prior(self):
        h = HeaderMap()
        h.set(CONTENT_SESSION, "sess-1")
        h.set_epoch(1)
        h.set_epoch(2)
        assert h.get(CONTENT_SESSION) == "sess-1;epoch=2"
        assert h.epoch == 2

    def test_epoch_survives_the_wire(self):
        h = HeaderMap()
        h.set(CONTENT_SESSION, "sess-7")
        h.set_epoch(5)
        parsed = HeaderMap.parse(h.format())
        assert parsed.epoch == 5
        assert parsed.session == "sess-7"

    def test_malformed_epoch_raises(self):
        h = HeaderMap()
        h.set(CONTENT_SESSION, "sess-1;epoch=banana")
        with pytest.raises(HeaderError):
            h.epoch

    def test_negative_epoch_rejected(self):
        h = HeaderMap()
        h.set(CONTENT_SESSION, "sess-1")
        with pytest.raises(HeaderError):
            h.set_epoch(-1)

    def test_set_epoch_without_session_rejected(self):
        with pytest.raises(HeaderError):
            HeaderMap().set_epoch(1)
