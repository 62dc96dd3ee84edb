"""repro.faults — fault injection and recovery for the streamlet plane.

Three cooperating pieces:

* :mod:`repro.faults.plan` — seeded, replayable descriptions of what
  should break (:class:`FaultPlan`);
* :mod:`repro.faults.inject` — lands a plan on a live stream without
  touching streamlet code (:class:`FaultInjector`);
* :mod:`repro.faults.supervisor` — declarative recovery: bounded retry
  with backoff, dead-letter pool, bypass of failing optional streamlets
  (:class:`Supervisor`, :class:`RecoveryPolicy`);
* :mod:`repro.faults.invariant` — the message-conservation check that
  makes "no message was lost" a provable statement instead of a hope.

See ``docs/fault-tolerance.md`` for the end-to-end story.
"""

import importlib

#: where each public name lives; :func:`__getattr__` imports the module the
#: first time the name is read, so a gateway that imports the conservation
#: check from :mod:`repro.faults.invariant` loads no plan, injector or
#: supervisor
_EXPORTS = {
    "ChannelFault": "repro.faults.plan",
    "ConservationReport": "repro.faults.invariant",
    "DeadLetter": "repro.faults.supervisor",
    "DeadLetterPool": "repro.faults.supervisor",
    "FaultInjector": "repro.faults.inject",
    "FaultPlan": "repro.faults.plan",
    "HandoffStorm": "repro.faults.plan",
    "InjectedFault": "repro.faults.plan",
    "LinkFault": "repro.faults.plan",
    "RecoveryPolicy": "repro.faults.supervisor",
    "StreamletFault": "repro.faults.plan",
    "Supervisor": "repro.faults.supervisor",
    "assert_conservation": "repro.faults.invariant",
    "check_conservation": "repro.faults.invariant",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    """Resolve a public name on first access (PEP 562) and cache it."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.faults' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
