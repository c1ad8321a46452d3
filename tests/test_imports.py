"""Every module of the package and of its tests uses every name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """'file:line: name' for each name that path imports and never reads.

    Names listed in __all__ count as read.  An import line marked
    '# noqa: F401' is a deliberate re-export and is skipped.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.setdefault(alias.asname or alias.name.split(".")[0], alias.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "surfenc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert paths
    assert [entry for path in paths for entry in unused_imports(path)] == []
