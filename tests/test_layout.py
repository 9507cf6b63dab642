"""No helper that only its own tests call, and no import that nothing uses.

Every public module-level function and every public method in src/msnmt/
must be named somewhere in src/msnmt/ outside its own def, or somewhere under
perfbench/, which drives the package from outside.  A name counts where it
appears as code: a variable, an attribute or an import, not in a string or a
comment.  Names are matched without their owner, so any ``x.load`` counts as a
use of ``Vocabulary.load``.  ALLOWED holds the few kept for another reason.

Every name a module in src/msnmt/ or tests/ imports must be used in that
module as code, listed in its ``__all__``, or imported on a line marked
``# noqa: F401`` (pyflakes' own rule, checked without pyflakes installed).
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "msnmt"

ALLOWED = {
    "attention.attend": "perfbench/tests/test_trace.py asserts the tracer wraps it",
    "recurrent.zero_states": "perfbench/tests/test_trace.py asserts the tracer wraps it",
    "data.Vocabulary.save": "writes the file Vocabulary.load reads, which "
                            "perfbench/tests/test_trace.py asserts the tracer wraps",
}


def public_defs(module, tree):
    """(qualified name, def node) of each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub


def names(tree):
    """How often a tree uses each name as code."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def test_every_public_function_is_used_outside_the_tests():
    src = parse(sorted(SRC.glob("*.py")))
    in_src = sum(map(names, src.values()), Counter())
    bench = sum(map(names, parse((ROOT / "perfbench").rglob("*.py")).values()), Counter())
    defined, unused = set(), []
    for path, tree in src.items():
        for qualname, node in public_defs(path.stem, tree):
            defined.add(qualname)
            outside = in_src[node.name] - names(node)[node.name]
            if not (outside or bench[node.name] or qualname in ALLOWED):
                unused.append(qualname)
    assert not unused, f"public but named only in tests (or nowhere): {unused}"
    assert set(ALLOWED) <= defined, f"stale ALLOWED entries: {set(ALLOWED) - defined}"


def unused_imports(tree, lines):
    """Names ``tree`` imports but never reads, outside ``__all__`` and
    ``# noqa: F401`` lines."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                yield f"{alias.lineno}: {bound}"


def test_every_import_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{where}"
              for path, tree in parse(paths).items()
              for where in unused_imports(tree, path.read_text(encoding="utf-8").splitlines())]
    assert not unused, f"imported but never used: {unused}"
