"""Public API: every exported name resolves and is exported by the module
that defines it, so a deleted name cannot linger in an export list; and
importing the package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_leaves_out_scipy_stats():
    # scipy.stats costs about half of `import mwiv`, paid by every CLI
    # process; the package needs only scipy.special and scipy.optimize
    src = os.path.dirname(os.path.dirname(os.path.abspath(mwiv.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, mwiv, mwiv.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
