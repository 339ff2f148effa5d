"""Lazy public names for the package ``__init__`` modules (PEP 562).

A package lists where each of its public names lives, and importing the
package imports none of those submodules: each name loads its submodule
on first access.  So a command imports only the modules it calls; a
warm ``read-repro all`` never loads the engine daemon, the campaign
runner or the trainer.
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` of a package with lazy public names.

    ``exports`` maps each submodule, relative to ``package``, to the
    names it provides; a submodule that is itself a public name lists
    its own name.  A resolved name is bound in the package's namespace,
    so ``__getattr__`` runs once per name.
    """
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        source = importlib.import_module(f"{package}.{module}")
        value = source if name == module else getattr(source, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(module_of))

    return __getattr__, __dir__, list(module_of)
