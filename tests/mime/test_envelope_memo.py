"""The HeaderMap memo: derived views never outlive the fields they were read from."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HeaderError, MediaTypeParseError
from repro.mime.headers import CONTENT_SESSION, CONTENT_TYPE, PEER_STACK, HeaderMap
from repro.mime.message import MimeMessage
from repro.mime.wire import serialize_message

VIEWS = ("session", "epoch", "content_type", "format", "encoded")


def read(headers: HeaderMap, view: str):
    """One view's value, or the exception type it raises."""
    try:
        value = getattr(headers, view)
        return value() if callable(value) else value
    except (HeaderError, MediaTypeParseError) as exc:
        return type(exc)


def from_scratch(headers: HeaderMap) -> HeaderMap:
    """The same fields under a memo that has never seen a read."""
    fresh = HeaderMap()
    fresh._fields = dict(headers._fields)
    return fresh


# names the typed views read, plus free ones; values with the separators
# the views split on, so sessions grow parameters and peers grow stacks
_NAMES = st.sampled_from(
    [CONTENT_TYPE, "content-type", CONTENT_SESSION, "CONTENT-SESSION", PEER_STACK,
     "Content-Length", "X-Free", "x-free", "Ünï-Cödé"]
)
_VALUES = st.one_of(
    st.sampled_from(
        ["text/plain", "image/gif; q=1", "not a type", "", "sess-1", "sess-1;epoch=4",
         " padded ;epoch=7; other=1", "s;epoch=x", ";epoch=2", "a,b,c", "12", "héllo wörld"]
    ),
    st.text(alphabet=st.characters(blacklist_characters="\r\n"), max_size=12),
)
_TOKENS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8)

_OPS = st.one_of(
    st.tuples(st.just("set"), _NAMES, _VALUES),
    st.tuples(st.just("remove"), _NAMES),
    st.tuples(st.just("content_type"), st.sampled_from(["text/plain", "image/*", "x/y; a=b"])),
    st.tuples(st.just("session"), st.sampled_from(["sess-2", "sess-3;epoch=1"])),
    st.tuples(st.just("set_epoch"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("set_trace"), _TOKENS, st.one_of(st.none(), _TOKENS)),
    st.tuples(st.just("push_peer"), _TOKENS),
    st.tuples(st.just("pop_peer")),
    st.tuples(st.just("copy")),
)


def apply(headers: HeaderMap, op: tuple) -> HeaderMap:
    """Run one mutator (an illegal call must leave the map as it was)."""
    kind, *args = op
    try:
        if kind == "copy":
            return headers.copy()
        if kind in ("content_type", "session"):
            setattr(headers, kind, args[0])
        else:
            getattr(headers, kind)(*args)
    except HeaderError:
        pass
    return headers


class TestMemoisedViews:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_OPS, max_size=25))
    def test_every_view_matches_a_fresh_derivation_after_any_mutation(self, ops):
        headers = HeaderMap()
        for op in ops:
            headers = apply(headers, op)
            # reading every view here also files it in the memo, so the
            # next mutator always has something stale to leave behind
            fresh = from_scratch(headers)
            for view in VIEWS:
                assert read(headers, view) == read(fresh, view), (op, view)
            assert headers.encoded() == headers.format().encode("utf-8")
            assert HeaderMap.parse(headers.format()) == headers
            assert list(HeaderMap.parse(headers.format())) == list(headers)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_OPS, max_size=12), st.binary(max_size=64))
    def test_total_size_is_the_serialised_length(self, ops, body):
        headers = HeaderMap()
        for op in ops:
            headers = apply(headers, op)
        message = MimeMessage("application/octet-stream", body, headers=headers)
        message.total_size()  # file the views before the stamp moves them
        message.stamp_length()
        assert message.total_size() == len(serialize_message(message))
        message.headers.push_peer("late")  # and again after a further write
        assert message.total_size() == len(serialize_message(message))

    def test_copy_shares_no_memo(self):
        headers = HeaderMap({CONTENT_SESSION: "s;epoch=1", CONTENT_TYPE: "text/plain"})
        assert (headers.session, headers.epoch) == ("s", 1)
        clone = headers.copy()
        clone.set_epoch(2)
        clone.content_type = "image/gif"
        assert (headers.epoch, clone.epoch) == (1, 2)
        assert str(headers.content_type) == "text/plain"
        assert headers.format() != clone.format()

    def test_message_clone_shares_no_memo(self):
        message = MimeMessage("text/plain", b"abc", session="s")
        size = message.total_size()
        twin = message.clone()
        twin.headers.push_peer("p")
        assert message.total_size() == size
        assert twin.total_size() == size + len("\nX-MobiGATE-Peers: p")


class TestReadRacingWrite:
    def test_a_read_after_a_write_returned_never_sees_the_old_value(self):
        """Writer: store epoch *i*, then publish *i*.  Reader: note the
        published number, then read — a view may be newer than the note,
        never older.  A memo cleared in place, or replaced before the
        field is written, lets a reader that was mid-derivation file its
        stale value where every later reader finds it.  Writes come in
        bursts so that one lands while a reader is still deriving from
        the one before, and the fields are many so that deriving is slow.
        """
        filler = ";".join(f"p{n}=v" for n in range(40))
        headers = HeaderMap({f"X-Fill-{n}": "v" * 8 for n in range(20)})
        headers.set(CONTENT_SESSION, f"s;{filler};epoch=0")
        published = [0]
        stale: list[tuple] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                floor = published[0]
                epoch = headers.epoch
                in_block = int(headers.encoded().rsplit(b"epoch=", 1)[1])
                if epoch < floor or in_block < floor:
                    stale.append((floor, epoch, in_block))
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 1.0
            i = 0
            while time.monotonic() < deadline and not stale:
                for _ in range(3):
                    i += 1
                    headers.set(CONTENT_SESSION, f"s;{filler};epoch={i}")
                    published[0] = i
                time.sleep(0.0001)  # readers run against a settled map
        finally:
            stop.set()
            for thread in threads:
                thread.join(5.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not stale, f"(published, epoch view, epoch in block) = {stale[0]}"
        assert i > 300

    def test_a_reader_just_ahead_of_the_field_write_cannot_poison_the_new_memo(self):
        """The one-instruction window the threads above rarely hit, forced:
        a full read of every view lands immediately before each field
        write.  If the memo had been replaced by then, that read would file
        pre-write values in the dict the write leaves behind."""
        headers = HeaderMap({CONTENT_SESSION: "s;epoch=1", CONTENT_TYPE: "text/plain"})

        class ReadFirst(dict):
            def __setitem__(self, key, value):
                for view in VIEWS:
                    read(headers, view)
                super().__setitem__(key, value)

            def pop(self, key, *default):
                for view in VIEWS:
                    read(headers, view)
                return super().pop(key, *default)

        headers._fields = ReadFirst(headers._fields)
        headers.set_epoch(2)
        assert (headers.epoch, headers.format().count("epoch=2")) == (2, 1)
        headers.content_type = "image/gif"
        assert str(headers.content_type) == "image/gif"
        headers.remove(CONTENT_SESSION)
        assert headers.session is None and headers.encoded() == b"Content-Type: image/gif"


class TestIdenticalSet:
    def test_identical_pair_is_a_no_op_that_keeps_the_memo(self):
        headers = HeaderMap({"Content-Length": "3"})
        block = headers.format()
        headers.set("Content-Length", "3")
        assert headers.format() is block
        headers.set("content-length", "3")  # another display name: a real write
        assert headers.format() == "content-length: 3"

    @pytest.mark.parametrize("name, value", [
        ("", "v"), ("Bad:Name", "v"), ("Bad\nName", "v"), ("Bad\rName", "v"),
        ("A", "x\ny"), ("A", "x\ry"),
    ])
    def test_illegal_pairs_are_still_rejected_beside_a_stored_twin(self, name, value):
        # whatever is stored, nothing illegal can equal it: a stored pair
        # is stripped and newline-free, so the shortcut cannot wave one by
        headers = HeaderMap({"A": "x y", "Bad Name": "v"})
        before = list(headers)
        with pytest.raises(HeaderError):
            headers.set(name, value)
        assert list(headers) == before

    def test_unstripped_and_non_string_values_take_the_validating_path(self):
        headers = HeaderMap({"A": "1"})
        headers.set(" A ", " 1 ")
        headers.set("A", 1)
        assert list(headers) == [("A", "1")]
