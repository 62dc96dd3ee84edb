"""MobiGATE reproduction — adaptive proxy middleware for wireless links.

A from-scratch Python implementation of the MobiGATE system (Zheng & Chan,
ICPP 2004 / HKPU MPhil thesis 2005): streamlet composition described in
the MCL coordination language, checked by the chapter-5 semantic analyses,
executed by a two-plane runtime, reversed by a thin client, and evaluated
over a virtual-time wireless emulation.

Quick start::

    from repro import build_server, InlineScheduler, MimeMessage

    server = build_server()
    stream = server.deploy_script(\"\"\"
    main stream s{
      streamlet c = new-streamlet (text_compress);
      streamlet e = new-streamlet (encryptor);
      connect (c.po, e.pi);
    }
    \"\"\")
    scheduler = InlineScheduler(stream)
    stream.post(MimeMessage("text/plain", b"hello " * 100))
    scheduler.pump()
    [wire] = stream.collect()

See README.md, DESIGN.md, and docs/ for the full tour.
"""

import importlib

__version__ = "1.0.0"

#: where each public name lives; :func:`__getattr__` imports the module the
#: first time the name is read, so ``import repro.gateway`` (which runs this
#: file first) loads the gateway's own closure and not the whole library
_EXPORTS = {
    "build_server": "repro.apps",
    "DISTILLATION_MCL": "repro.apps",
    "WEB_ACCELERATION_MCL": "repro.apps",
    "MobiGateServer": "repro.runtime",
    "MobiGateClient": "repro.client.client",
    "RuntimeStream": "repro.runtime",
    "Streamlet": "repro.runtime",
    "InlineScheduler": "repro.runtime",
    "MimeMessage": "repro.mime",
    "MediaType": "repro.mime",
    "serialize_message": "repro.mime",
    "parse_message": "repro.mime",
    "compile_script": "repro.mcl",
    "parse_script": "repro.mcl",
    "analyze": "repro.semantics",
    "verify": "repro.semantics",
    "ContextEvent": "repro.events",
    "EventCatalog": "repro.events",
    "EventCategory": "repro.events",
    "MobiGateError": "repro.errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> object:
    """Resolve a public name on first access (PEP 562) and cache it."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
