"""The MobiGATE Coordination Language (thesis chapter 4).

MCL describes streamlet compositions: streamlet and channel *definitions*
(ports typed with MIME media types, plus attributes), and *stream* scripts
that instantiate them, wire connections, and declare event-driven
reconfiguration (``when`` blocks).

Pipeline::

    source text --lex--> tokens --parse--> AST --compile--> ConfigurationTable

The compiler performs the section 4.4.1 compatibility checks, expands
recursive compositions (section 4.4.2), and emits one
:class:`~repro.mcl.config.ConfigurationTable` per stream — the structure
the Coordination Manager routes from at runtime.
"""

import importlib

#: where each public name lives; :func:`__getattr__` imports the module the
#: first time the name is read, so a gateway that compiles scripts never
#: loads the pretty-printer
_EXPORTS = {
    "tokenize": "repro.mcl.lexer",
    "parse_script": "repro.mcl.parser",
    "MclCompiler": "repro.mcl.compiler",
    "compile_script": "repro.mcl.compiler",
    "ConfigurationTable": "repro.mcl.config",
    "CompiledScript": "repro.mcl.config",
    "format_script": "repro.mcl.pretty",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    """Resolve a public name on first access (PEP 562) and cache it."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.mcl' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
