"""What ``import repro.gateway`` costs: the serving core and nothing else.

The gateway's ``setup_s`` and ``process.import_ms`` pay for every module
the import pulls in.  The sharded engine (EXPERIMENTS.md) once dragged
``multiprocessing.shared_memory`` into every gateway process; an eager
``repro/__init__.py`` dragged in numpy, every codec, the client runtime
and the kill -9 harness.  numpy and a codec now load when a composition
that needs them is deployed.  Each probe runs in a fresh interpreter, so
another test's imports cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: bench_e2e's ``small_echo`` composition: two redirectors in series
SMALL_ECHO_MCL = """main stream small_echo{
  streamlet r0, r1 = new-streamlet (redirector);
  connect (r0.po, r1.pi);
}"""

TEXT_COMPRESS_MCL = """main stream squeeze{
  streamlet tc = new-streamlet (text_compress);
  streamlet r = new-streamlet (redirector);
  connect (tc.po, r.pi);
}"""


#: the text compressor appears only in a ``when`` handler
TEXT_COMPRESS_LATER_MCL = """main stream squeeze_later{
  streamlet a, b = new-streamlet (redirector);
  connect (a.po, b.pi);
  when (LOW_BANDWIDTH) {
    streamlet tc = new-streamlet (text_compress);
    insert (a.po, b.pi, tc);
  }
}"""


def run_probe(source: str) -> object:
    """Run ``source`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


PROBE = """
import json, sys
import repro.gateway
import repro.runtime
print(json.dumps({
    "loaded": [m for m in ("multiprocessing.shared_memory", "repro.runtime.shm")
               if m in sys.modules],
    "schedulers": sorted(n for n in repro.runtime.__all__ if n.endswith("Scheduler")),
}))
"""


def test_gateway_import_loads_no_shared_memory_and_two_schedulers():
    seen = run_probe(PROBE)
    assert seen["loaded"] == []
    assert seen["schedulers"] == ["InlineScheduler", "ThreadedScheduler"]


def test_gateway_import_loads_no_numpy_codec_client_or_crash_harness():
    seen = run_probe("""
import json, sys
import repro.gateway.__main__
print(json.dumps([m for m in ("numpy", "repro.codecs", "repro.client", "repro.store.crash")
                  if m in sys.modules]))
""")
    assert seen == []


ECHO_WITHOUT_NUMPY = """
import json, socket, sys
sys.modules["numpy"] = None  # every ``import numpy`` now raises ImportError
from repro.gateway import GatewayServer
from repro.mime.message import MimeMessage
from repro.mime.wire import FrameAssembler, serialize_message

with GatewayServer().run_in_thread() as handle:
    key = handle.control({"op": "deploy", "mcl": MCL})["session"]
    with socket.create_connection(handle.data_address, timeout=10) as sock:
        sock.sendall(serialize_message(MimeMessage("text/plain", b"x" * 256, session=key)))
        assembler, echoed = FrameAssembler(), []
        while not echoed:
            chunk = sock.recv(65536)
            assert chunk, "gateway closed the connection"
            echoed = assembler.feed(chunk)
[echo] = echoed
print(json.dumps({"echo": [echo.session == key, echo.body == b"x" * 256],
                  "numpy": sys.modules["numpy"] is not None}))
"""


def test_a_gateway_without_numpy_deploys_and_echoes():
    seen = run_probe(f"MCL = {SMALL_ECHO_MCL!r}\n" + ECHO_WITHOUT_NUMPY)
    assert seen == {"echo": [True, True], "numpy": False}


RASTER_WITHOUT_NUMPY = """
import json, socket, sys, time
sys.modules["numpy"] = None
from repro.gateway import GatewayServer
from repro.mime.wire import FrameAssembler

def frame(kind, body):
    head = "Content-Type: image/gif\\nContent-Session: " + key
    if kind:
        head += "\\nX-MobiGATE-Payload: " + kind
    return (head + "\\nContent-Length: %d\\n\\n" % len(body)).encode() + body

with GatewayServer().run_in_thread() as handle:
    key = handle.control({"op": "deploy", "mcl": MCL})["session"]
    with socket.create_connection(handle.data_address, timeout=10) as sock:
        # a plain frame, then a raster frame, in one write
        sock.sendall(frame(None, b"x" * 64) + frame("raster", b"\\x01\\x00\\x01\\x00abc"))
        assembler, replies = FrameAssembler(), []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break  # the gateway closed the connection
            replies += assembler.feed(chunk)
    for _ in range(500):
        stats = handle.control({"op": "stats", "session": key})
        if stats["frames_in"] == 1 and stats["conservation"]["residual"] == 0:
            break
        time.sleep(0.01)
    health = handle.control({"op": "health"})
print(json.dumps({
    "errors": [m.body.decode()[:37] for m in replies if m.session != key],
    "admitted": stats["conservation"]["admitted"],
    "balanced": stats["conservation"]["balanced"],
    "health": health["ok"],
}))
"""


def test_a_raster_frame_without_numpy_is_refused_as_a_bad_frame():
    seen = run_probe(f"MCL = {SMALL_ECHO_MCL!r}\n" + RASTER_WITHOUT_NUMPY)
    # the frame before it in the same read is admitted; the raster frame
    # is answered with an error frame, and the gateway keeps serving
    assert seen == {
        "errors": ["bad frame: raster payloads need numpy"],
        "admitted": 1, "balanced": True, "health": True,
    }


CODEC_AT_DEPLOY = """
import json, sys
from repro.gateway import GatewayServer

codec = "repro.codecs.textcodec"
with GatewayServer().run_in_thread() as handle:
    before = codec in sys.modules
    key = handle.control({"op": "deploy", "mcl": MCL})["session"]
    after = codec in sys.modules
    processed = handle.gateway.sessions[key].stream.node("tc").streamlet.processed
print(json.dumps({"before": before, "after": after, "processed": processed,
                  "numpy": "numpy" in sys.modules}))
"""


def test_a_codec_deploy_loads_its_codec_before_any_message():
    seen = run_probe(f"MCL = {TEXT_COMPRESS_MCL!r}\n" + CODEC_AT_DEPLOY)
    # the text codec is LZSS + Huffman: its deploy loads no numpy
    assert seen == {"before": False, "after": True, "processed": 0, "numpy": False}


HANDLER_CODEC_AT_DEPLOY = """
import json, sys
from repro.gateway import GatewayServer

codec = "repro.codecs.textcodec"
with GatewayServer().run_in_thread() as handle:
    key = handle.control({"op": "deploy", "mcl": MCL})["session"]
    loaded = [codec in sys.modules, "numpy" in sys.modules]
    instances = handle.gateway.sessions[key].stream.instance_names()
print(json.dumps({"loaded": loaded, "instances": sorted(instances)}))
"""


def test_a_codec_only_a_handler_inserts_loads_at_deploy():
    seen = run_probe(f"MCL = {TEXT_COMPRESS_LATER_MCL!r}\n" + HANDLER_CODEC_AT_DEPLOY)
    # loaded before LOW_BANDWIDTH, with no instance made; the text codec needs no numpy
    assert seen == {"loaded": [True, False], "instances": ["a", "b"]}


def test_public_names_resolve_on_first_access():
    seen = run_probe("""
import importlib, json, sys
import repro, repro.codecs, repro.store

eager = [m for m in ("repro.client", "repro.store.crash", "numpy") if m in sys.modules]
wrong = []
for package in (repro, repro.codecs, repro.store):
    for name in package.__all__:
        value = getattr(package, name)
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("repro."):
            if getattr(importlib.import_module(home), name, None) is not value:
                wrong.append(package.__name__ + "." + name)
star = {}
exec("from repro import *", star)
print(json.dumps({"eager": eager, "wrong": wrong,
                  "star": sorted(set(star) - {"__builtins__"}) == sorted(repro.__all__)}))
""")
    assert seen == {"eager": [], "wrong": [], "star": True}


def test_unobserved_and_not_durable_have_no_stand_in_classes():
    import repro.store
    import repro.telemetry
    from repro.telemetry import NULL_TELEMETRY, Telemetry

    for module in (repro.telemetry, repro.store):
        names = set(module.__all__) | set(vars(module))
        assert [n for n in names if n.startswith(("Null", "NULL_"))] == (
            ["NULL_TELEMETRY"] if module is repro.telemetry else []
        )
    assert not isinstance(NULL_TELEMETRY, Telemetry)
