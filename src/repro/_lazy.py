"""Lazy package re-exports (PEP 562).

A package that re-exports its submodules' names calls
:func:`lazy_exports` instead of importing them, so importing the
package, or one light submodule of it, loads nothing else; each name
imports its submodule on first access and is then cached in the
package namespace.  Every name in ``__all__`` still imports and shows
in ``dir()``.

A re-export may share its submodule's name (``repro.analysis.sweep``
is a function of ``repro.analysis.sweep``).  Importing a submodule
binds it on its package after the submodule has run, where no
``__getattr__`` can intervene, so such a package keeps the export:
binding the submodule under that name binds its export instead, in
any import order.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Dict, Optional, Sequence


def lazy_exports(
    namespace: dict,
    exports: Dict[str, Sequence[str]],
    load_first: Optional[str] = None,
) -> None:
    """Give the package whose globals are ``namespace`` a module-level
    ``__getattr__`` and ``__dir__`` serving ``exports`` (submodule ->
    the names it defines); ``load_first`` names a submodule to import
    before any name resolves."""
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if load_first is not None:
            import_module(f"{package}.{load_first}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(namespace["__all__"]))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__

    same_name = {name for name, module in owner.items() if name == module}
    if same_name:

        class _Package(ModuleType):
            def __setattr__(self, name: str, value) -> None:
                if name in same_name and isinstance(value, ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = _Package
