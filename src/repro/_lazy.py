"""Lazy package surfaces: re-exports that import their home on first use.

A package's ``__init__`` that re-exports eagerly makes every importer pay
for every submodule — ``import repro`` used to load the whole serving
stack (numpy, asyncio, multiprocessing) for a process that only generates
a machine.  :func:`lazy_exports` builds the PEP 562 module hooks instead:
the package keeps its ``__all__`` and names its re-exports in one
``{submodule: names}`` table, and a name is imported — and stored in the
package's namespace, so the hook runs once per name per process — the
first time somebody asks for it.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__)`` pair for a package's ``globals()``.

    ``exports`` maps each home module to the names the package re-exports
    from it; the objects stay the home module's own (same identity, same
    ``__module__``, so pickles are unaffected).
    """
    package = namespace["__name__"]
    home_of = {name: home for home, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            home = home_of[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(home), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home_of.keys())

    return __getattr__, __dir__
