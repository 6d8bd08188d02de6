"""The package exports only names the engine itself or the benchmark uses.

A name exported from mayss/__init__.py must be referenced, as code, in a
src/mayss module other than the one that defines it, or in bench/*.py.  A
helper that only tests call belongs in tests/helpers.py instead.
"""

import ast
import io
import tokenize
from pathlib import Path

import mayss

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mayss"


def _names_used(path):
    """Every identifier in a file's code, leaving out comments and strings."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {tok.string for tok in tokens if tok.type == tokenize.NAME}


def _defined_at_top_level(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_export_has_a_caller_outside_tests():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    defined = {path: _defined_at_top_level(path) for path in modules}
    used = {path: _names_used(path) for path in modules}
    bench_used = set().union(*map(_names_used, sorted((ROOT / "bench").glob("*.py"))))
    exported = [name for name, value in vars(mayss).items()
                if not name.startswith("_") and not isinstance(value, type(mayss))]
    assert exported
    orphans = []
    for name in exported:
        owners = [path for path in modules if name in defined[path]]
        assert len(owners) == 1, (name, owners)
        callers = [path.name for path in modules if path != owners[0] and name in used[path]]
        if not callers and name not in bench_used:
            orphans.append("%s (defined in %s)" % (name, owners[0].name))
    assert not orphans, "exported but used only by tests: " + ", ".join(orphans)
