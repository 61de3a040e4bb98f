"""Layout guards: every public top-level name in the package has a caller in
the package itself (a helper that only tests use belongs under tests/), and
the benchmark's tracer can wrap every lookup of the functions it traces."""
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfairdeploy"

# toys.py holds the toy instances the tests and the benchmark's tracer build
# on; it leaves the package once the tracer's table stops pinning it
# (ROADMAP item 1).
EXEMPT_MODULES = {"toys.py"}


def _public_definitions(tree: ast.Module):
    """(name, first line, last line) of each public top-level function,
    class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of every name read, attribute taken or name imported; a
    re-export from __init__.py counts, since it puts the name in the
    package's API."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced_public_names() -> list[str]:
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    missing = []
    for module, tree in trees.items():
        if module in EXEMPT_MODULES:
            continue
        for name, first, last in _public_definitions(tree):
            used_elsewhere = any(
                ref == name and (other != module or not first <= line <= last)
                for other, module_refs in refs.items() if other not in EXEMPT_MODULES
                for ref, line in module_refs
            )
            if not used_elsewhere:
                missing.append(f"{module[:-3]}.{name}")
    return missing


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names() == []


# The tracer patches module namespaces, so it runs in its own interpreter and
# no wrapped function leaks into the other tests.
_TRACER_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qfairdeploy.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(tracer.leftover_references())
"""


def test_tracer_wraps_every_lookup_of_a_traced_function():
    # a traced function imported by name into a module outside its table row
    # (say `from .quantum import circuit_unitary` in qnn) would be left over
    out = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
