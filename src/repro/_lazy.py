"""Package attributes that import their module on first use (PEP 562).

A solve needs the Schur kernels, the engine and the operators, not the
T3D simulator, trace analysis or performance models.  Packages that
re-export those heavier modules install the hooks returned by
:func:`lazy_exports`, so ``import repro`` stays cheap while every public
name keeps resolving — and appearing in ``dir()`` — exactly as before.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]],
                 submodules: tuple[str, ...] = ()):
    """Return ``(__getattr__, __dir__)`` for the module ``package``.

    ``exports`` maps a module's dotted name to the names ``package``
    re-exports from it; ``submodules`` lists submodules reachable as
    attributes.  The first access imports the module and caches the
    value in ``package``'s namespace, so later lookups cost nothing.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin)
                      | set(submodules))

    return __getattr__, __dir__
