"""Every module under ``src/repro`` is reached from an entry point.

The walk follows ``ast`` imports (top-level and function-local alike)
from the entry points the system actually runs — the CLI, the facade,
the service, the store, the gateway, the fuzz engine, the experiment
registry — and from ``examples/*.py``.  A module that only its own tests
import fails here, so library surface that nothing uses cannot grow back
unnoticed.

A name imported through a package ``__init__`` counts as a use of the
module that defines it.  The ``__init__``'s own re-exports do not count:
``repro.scheduling`` re-exporting a module's names does not make that
module reached.  An entry-point package is the exception, since its
``__init__`` is the surface it serves.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ENTRY_POINTS = (
    "repro.__main__",
    "repro.cli",
    "repro.api",
    "repro.gateway",
    "repro.serve",
    "repro.store",
    "repro.check",
    "repro.analysis.experiments",
)

# Modules kept although no entry point imports them, each with its reason.
ALLOWLIST = {
    "repro.instances.adversarial": (
        "builds the golden fixture families R6, R7 and R12 (tests/test_golden.py)"
    ),
}


def _modules():
    """Map each dotted module name under ``src/repro`` to its file."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


def _is_package(name):
    return MODULES[name].name == "__init__.py"


def _parse(name):
    return ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))


def _source(node, importer):
    """The module an ``ImportFrom`` node names (the code imports absolutely)."""
    assert not node.level, f"{importer}: relative imports are not resolved here"
    return node.module


def _reexports(package):
    """``{name: (module, original name)}`` for a package's top-level imports."""
    out = {}
    for node in _parse(package).body:
        if isinstance(node, ast.ImportFrom):
            source = _source(node, package)
            for alias in node.names:
                out[alias.asname or alias.name] = (source, alias.name)
    return out


def _imports(name, tree, follow_reexports):
    """Yield ``(module, imported names or None)`` for every import in ``tree``.

    A package ``__init__`` reached only through its names skips its
    top-level ``from … import`` statements: those are its re-exports.
    """
    skipped = set()
    if not follow_reexports:
        skipped = {id(n) for n in tree.body if isinstance(n, ast.ImportFrom)}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            yield _source(node, name), [a.name for a in node.names]


def _targets(module, names):
    """The repro modules that ``from module import names`` uses."""
    if module not in MODULES:
        return
    yield module
    if not names or not _is_package(module):
        return
    reexports = _reexports(module)
    for name in names:
        submodule = f"{module}.{name}"
        if name in reexports:
            source, original = reexports[name]
            yield from _targets(source, [original])
        elif submodule in MODULES:
            yield submodule


def reached_modules():
    """Every repro module the walk from the entry points reaches."""
    reached = set()
    followed = set()
    queue = [(name, True) for name in ENTRY_POINTS]
    for example in sorted((REPO / "examples").glob("*.py")):
        tree = ast.parse(example.read_text(), filename=str(example))
        for module, names in _imports("examples", tree, True):
            queue.extend((m, False) for m in _targets(module, names))
    while queue:
        name, entry = queue.pop()
        # Importing a module runs every enclosing package's __init__.
        parts = name.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        key = (name, entry or not _is_package(name))
        if key in followed:
            continue
        followed.add(key)
        for module, names in _imports(name, _parse(name), key[1]):
            queue.extend((m, False) for m in _targets(module, names))
    return reached


def test_entry_points_exist():
    missing = [name for name in ENTRY_POINTS if name not in MODULES]
    assert not missing, f"entry points not found under src/repro: {missing}"


def test_allowlist_is_needed():
    reached = reached_modules()
    stale = sorted(name for name in ALLOWLIST if name in reached or name not in MODULES)
    assert not stale, f"allowlisted modules that are reached or gone: {stale}"


def test_every_module_is_reached():
    reached = reached_modules()
    unreached = sorted(set(MODULES) - reached - set(ALLOWLIST))
    assert not unreached, (
        "modules under src/repro that no entry point or example imports: "
        + ", ".join(unreached)
    )
