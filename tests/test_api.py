"""Public API: every exported name resolves, is exported by the module
that defines it and has a caller in the program, so a deleted name cannot
linger in an export list and no export serves the tests alone;
importing the package stays light; and each class the benchmark's tracer
patches defines the methods it patches."""

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import mwiv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


# Exports that the program does not call yet, each with its reason.
ALLOWED_TEST_ONLY: dict[str, str] = {}


def program_identifiers():
    """Every Name, Attribute and import-alias identifier in the package's
    modules (``__init__`` aside), the demos, the tools and the benchmark's
    ``run.py`` and ``workloads.py``."""
    files = [f for f in glob.glob(os.path.join(ROOT, "src", "mwiv", "*.py")) if not f.endswith("__init__.py")]
    files += glob.glob(os.path.join(ROOT, "demos", "*.py")) + glob.glob(os.path.join(ROOT, "tools", "*.py"))
    files += [os.path.join(ROOT, "perfbench", name) for name in ("workloads.py", "run.py")]
    names = set()
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_export_has_a_program_caller():
    used = program_identifiers()
    unused = sorted(name for name in mwiv.__all__ if name != "__version__" and name not in used)
    assert unused == sorted(ALLOWED_TEST_ONLY)


def test_import_leaves_out_scipy_stats():
    # scipy.stats costs about half of `import mwiv` and scipy.optimize
    # about 26 MB, paid by every CLI process; the package needs only
    # scipy.special
    src = os.path.dirname(os.path.dirname(os.path.abspath(mwiv.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, mwiv, mwiv.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.optimize'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_traced_methods_live_on_their_class():
    # perfbench's tracer replaces each METHODS entry through
    # cls.__dict__[method]; a listed class must define the method itself,
    # not inherit it, or `perfbench/run.py --trace 1` raises KeyError
    path = os.path.join(ROOT, "perfbench", "spans.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    methods = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "METHODS" for t in node.targets)
    )
    assert methods
    for mod_name, cls_name, meth, _ in methods:
        cls = getattr(importlib.import_module(f"mwiv.{mod_name}"), cls_name, None)
        assert cls is None or meth in vars(cls), (mod_name, cls_name, meth)
