"""The MobiGATE server runtime (thesis chapters 3 and 6).

Two planes, as in Figure 3-2:

* the **Stream Coordination Plane** — :class:`CoordinationManager` deploys
  compiled configuration tables as :class:`RuntimeStream` objects whose
  channels route messages between streamlet ports;
* the **Streamlet Execution Plane** — :class:`StreamletManager` owns the
  streamlet instances, pooling stateless ones (section 3.3.4).

Messages live once in a :class:`MessagePool` and move between streamlets
by identifier (pass-by-reference, section 6.7).  The
:class:`EventManager` multicasts :class:`~repro.events.ContextEvent`
objects to subscribed streams, whose ``when`` handlers the
reconfiguration engine replays without losing queued messages
(section 6.6).
"""

from repro.runtime.message_pool import MessagePool, PassMode
from repro.runtime.message_queue import MessageQueue
from repro.runtime.channel import Channel
from repro.runtime.streamlet import Streamlet, StreamletState, ForwardingStreamlet
from repro.runtime.directory import StreamletDirectory
from repro.runtime.pool import InstancePool
from repro.runtime.streamlet_manager import StreamletManager
from repro.runtime.events import EventManager
from repro.runtime.stream import RuntimeStream
from repro.runtime.reconfig import ReconfigTransaction, TxnState
from repro.runtime.scheduler import InlineScheduler
from repro.runtime.coordination import CoordinationManager
from repro.runtime.server import MobiGateServer

__all__ = [
    "ReconfigTransaction",
    "TxnState",
    "MessagePool",
    "PassMode",
    "MessageQueue",
    "Channel",
    "Streamlet",
    "StreamletState",
    "ForwardingStreamlet",
    "StreamletDirectory",
    "InstancePool",
    "StreamletManager",
    "EventManager",
    "RuntimeStream",
    "InlineScheduler",
    "CoordinationManager",
    "MobiGateServer",
]
