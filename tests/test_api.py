"""The package exports only names the engine itself or the benchmark uses.

A name exported from mayss/__init__.py must be referenced, as code, in a
src/mayss module other than the one that defines it, or in bench/*.py.  A
helper that only tests call belongs in tests/helpers.py instead.  The
README's library example runs as written.  The engine is integer
arithmetic: no module but the command line imports math.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import mayss
from mayss.algebra import Monomial
from mayss.verify import critical_monomials

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


def test_only_the_command_line_imports_math():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "math" in names and path.name != "cli.py":
                importers.append(path.name)
    assert not importers, importers


def test_readme_library_example_runs(capsys):
    examples = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(examples) == 1
    namespace = {}
    exec(compile(examples[0], "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "0\nTrue\n"
    ctx = namespace["ctx"]
    assert (sorted(namespace["basis"].monomials, key=Monomial.render)
            == sorted(critical_monomials(ctx, 4, 6), key=Monomial.render))
