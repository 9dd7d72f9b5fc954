"""Public API: every exported name resolves and is exported by the module
that defines it, so a deleted name cannot linger in an export list."""

import importlib
import pkgutil

import mwiv


def submodules():
    return [importlib.import_module(f"mwiv.{m.name}") for m in pkgutil.iter_modules(mwiv.__path__)]


def test_every_export_resolves():
    missing = [name for name in mwiv.__all__ if not hasattr(mwiv, name)]
    assert missing == []


def test_every_export_is_in_its_module_all():
    mods = submodules()
    for mod in mods:
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name}"
    unlisted = []
    for name in mwiv.__all__:
        if name == "__version__":
            continue
        obj = getattr(mwiv, name)
        home = getattr(obj, "__module__", None)
        if isinstance(home, str) and home.startswith("mwiv."):
            owners = [importlib.import_module(home)]
        else:
            # constants: any submodule that binds the same object
            owners = [mod for mod in mods if getattr(mod, name, None) is obj]
        if not any(name in mod.__all__ for mod in owners):
            unlisted.append(name)
    assert unlisted == []
