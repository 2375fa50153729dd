"""Every public name in the package has a program caller or is an entry point.

A public module-level function or class, or a public method of a public
class, in `src/mipsched/*.py` must be loaded (a `Name` read, an
`Attribute`, or an import alias) outside its own body somewhere in the
package (`__init__.py`, which only re-exports, does not count) or in
`scripts/`; otherwise the package docstring must list it under "Entry
points".  Tests do not count as callers.
"""

import ast
import re
from pathlib import Path

import mipsched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mipsched"


def entry_points() -> set[str]:
    """Backticked names in the docstring paragraph that starts "Entry
    points"; none without one."""
    doc = mipsched.__doc__ or ""
    start = doc.find("Entry points")
    if start < 0:
        return set()
    end = doc.find("\n\n", start)
    return set(re.findall(r"`([\w.]+)`", doc[start : end if end >= 0 else None]))


def loads(tree: ast.AST):
    """(name, line) of every load in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def public_definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each public
    module-level function or class and each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def unused_public_names() -> list[str]:
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    seen = {p: list(loads(tree)) for p, tree in trees.items()}
    listed = entry_points()
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for qual, name, first, last in public_definitions(tree):
            if qual in listed or name in listed:
                continue
            if not any(
                got == name and (p != path or not first <= line <= last)
                for p, names in seen.items()
                for got, line in names
            ):
                unused.append(f"{path.stem}.{qual}")
    return unused


def test_entry_points_listed():
    assert {"dump_lp", "exhaustive_solve", "MipModel.raw"} <= entry_points()


def test_every_public_name_is_used_or_an_entry_point():
    assert unused_public_names() == []
