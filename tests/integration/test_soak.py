"""Full-stack soak: executor-stepped server, wire transport, threaded client.

The closest thing to the thesis's live testbed: the web-acceleration
stream is stepped off the posting thread by the gateway's executor
(what ``scheduler="threaded"`` gets for its codec streamlets), every processed
message is serialised to wire bytes, and a multi-worker client
distributor reverse-processes them — while a LOW_BANDWIDTH event lands
mid-run.  The invariant is total content fidelity: every offered payload
arrives exactly once, byte-identical.
"""

import threading
import time

import pytest

from repro.apps import WEB_ACCELERATION_MCL, build_server
from repro.client.client_pool import ClientStreamletPool
from repro.client.distributor import MessageDistributor
from repro.mime.wire import parse_message, serialize_message
from repro.workloads.generators import WebWorkload

from tests.offloop import OffLoop


def test_threaded_end_to_end_soak():
    # no loss without any wait for room: the pump's headroom rule visits
    # a consumer before its bounded channel overflows, and the ingress
    # is far larger than the burst, so Figure 6-9's drop-on-full never
    # fires
    server = build_server()
    stream = server.deploy_script(WEB_ACCELERATION_MCL)
    scheduler = OffLoop(stream)

    delivered = []
    delivered_lock = threading.Lock()

    def deliver(message):
        with delivered_lock:
            delivered.append(message)

    distributor = MessageDistributor(ClientStreamletPool())
    distributor.start(deliver, workers=3)

    # the communicator terminal hands processed messages to this transport
    outbox = []
    outbox_lock = threading.Lock()

    def transport(message):
        with outbox_lock:
            outbox.append(message)

    stream.set_param("comm", "transport", transport)

    workload = list(WebWorkload(seed=99, image_fraction=0.3).messages(40))
    offered_texts = [
        m.body for m in workload if m.content_type.maintype == "text"
    ]
    n_offered = len(workload)

    try:
        # feed while the scheduler runs; fire the event mid-stream
        for index, message in enumerate(workload):
            stream.post(message)
            if index == 10:
                server.events.raise_event("LOW_BANDWIDTH")
            scheduler.kick()
            time.sleep(0.0005)
        assert scheduler.drain(timeout=60)

        # ship everything over "the air" into the client
        with outbox_lock:
            processed_messages = list(outbox)
        for processed in processed_messages:
            distributor.submit(parse_message(serialize_message(processed)))
        distributor.drain()
    finally:
        distributor.stop()
        scheduler.stop()  # ends the stream

    with delivered_lock:
        results = list(delivered)
    assert len(results) == n_offered
    # every text payload arrives byte-identical (images are lossy by design)
    delivered_texts = [
        m.body for m in results if m.content_type.maintype == "text"
    ]
    assert sorted(delivered_texts) == sorted(offered_texts)
    assert stream.stats.processing_failures == 0
    assert stream.stats.queue_drops == 0
