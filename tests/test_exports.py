"""Every name a ``repro`` module lists in ``__all__`` exists.

A name left in ``__all__`` after its definition is deleted fails only at
``from module import *`` time, so this imports every package and module
of ``repro`` and resolves each exported name.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        stale = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
        if stale:
            missing[name] = stale
    assert len(names) > 50  # the walk reached the subpackages
    assert not missing, f"__all__ lists undefined names: {missing}"


def test_every_public_name_is_its_defining_modules_object():
    # ``repro`` resolves its names lazily from ``_EXPORTS``: each must be
    # the very object its defining module holds, not a copy or a stale alias.
    for name in repro.__all__:
        if name != "__version__":
            module = importlib.import_module(repro._EXPORTS[name])
            assert getattr(repro, name) is getattr(module, name), name
