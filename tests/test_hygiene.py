"""Static hygiene of the package: no unused imports, and no public function
that nothing else in the source tree or the tests names."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "maxprod").glob("*.py"))
SCANNED = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def test_every_public_function_is_named_elsewhere():
    texts = {path: path.read_text(encoding="utf-8") for path in SCANNED}
    orphans = []
    for path in SOURCES:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, ast.FunctionDef) \
                    or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            # the definition itself, docstring included, does not count
            own = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            others = (text for other, text in texts.items() if other != path)
            if not word.search(own) and not any(map(word.search, others)):
                orphans.append(f"{path.stem}.{node.name}")
    assert orphans == []
