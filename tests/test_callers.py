"""Code that only tests reach is dead code; code the benchmark reaches
must stay.

Two checks keep a deletion sweep honest:

* every module under ``src/repro`` (``__main__`` aside) has a caller
  outside ``tests/``: a file in ``src/``, ``benchmarks/``, ``examples/``
  or ``perfbench/`` that imports the module, or imports from one of its
  enclosing packages a name the module defines.  The module itself and
  its own package's ``__init__`` do not count — a re-export alone is not
  a use;
* every ``(owner, attribute)`` that ``perfbench/spans.py`` wraps for the
  per-layer split still resolves, so ``perfbench/run.py --trace 1``
  cannot be broken by a rename or a deletion that no other caller sees.
"""

import ast
import os
from typing import Dict, Iterator, Optional, Set, Tuple

from .net.test_rate_solve_span import _load

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src")
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _py_files(top: str) -> Iterator[str]:
    for dirpath, _, files in os.walk(top):
        for f in sorted(files):
            if f.endswith(".py"):
                yield os.path.join(dirpath, f)


def _module_of(path: str) -> Optional[str]:
    """Dotted module name of a file under ``src/``, else None."""
    rel = os.path.relpath(path, SRC)
    if rel.startswith(os.pardir):
        return None
    parts = rel[:-len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _defined(tree: ast.Module) -> Set[str]:
    """Top-level names a module binds by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _imports(tree: ast.Module, module: Optional[str], is_pkg: bool) \
        -> Iterator[Tuple[str, Optional[str]]]:
    """``(module, None)`` per ``import M``; ``(M, name)`` per
    ``from M import name``, relative imports resolved."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg = module.split(".")
                if not is_pkg:
                    pkg.pop()
                pkg = pkg[:len(pkg) - node.level + 1]
                base = ".".join(pkg + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name


def uncalled_modules() -> Set[str]:
    modules: Dict[str, Set[str]] = {}
    for path in _py_files(os.path.join(SRC, "repro")):
        name = _module_of(path)
        if not path.endswith(("__init__.py", "__main__.py")):
            with open(path) as f:
                modules[name] = _defined(ast.parse(f.read()))
    called: Set[str] = set()
    for top in CALLER_DIRS:
        for path in _py_files(os.path.join(ROOT, top)):
            caller = _module_of(path)
            is_pkg = path.endswith("__init__.py")
            with open(path) as f:
                tree = ast.parse(f.read())
            for target, name in _imports(tree, caller, is_pkg):
                hits = {target} & modules.keys()
                if name is not None:
                    hits |= {m for m, defs in modules.items()
                             if m == f"{target}.{name}" or
                             (m.startswith(target + ".") and name in defs)}
                called |= {m for m in hits if m != caller and not (
                    is_pkg and m.rpartition(".")[0] == caller)}
    return set(modules) - called


def test_every_module_has_a_caller_outside_tests():
    assert uncalled_modules() == set()


def test_every_perfbench_patch_target_resolves():
    tracer = _load("spans").LayerTracer()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer._patches()
               if not callable(getattr(owner, attr, None))]
    assert missing == []
