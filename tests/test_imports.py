"""Every module of the package and of its tests uses every name it imports,
every definition of the package is referenced somewhere, and importing and
running the package loads only the modules it needs."""

import ast
import json
import os
import subprocess
import sys
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


def definitions(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each module-level function, class
    and constant of path, and of each method, except names like __all__ and
    __init__, which Python itself reads."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item) for item in node.body if isinstance(item, ast.FunctionDef)]
    return [
        (name, node.lineno, node.end_lineno) for name, node in found if not name.startswith("__")
    ]


def references(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each name read, attribute read or name imported in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
    return found


def test_every_definition_in_the_package_is_referenced():
    # a reference inside the definition itself, such as a recursive call,
    # does not count
    package = sorted((ROOT / "src" / "surfenc").glob("*.py"))
    readers = package + sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path in readers:
        for name, line in references(path):
            seen.setdefault(name, []).append((path, line))
    defined = [(path, *entry) for path in package for entry in definitions(path)]
    assert len(defined) > 150
    unreferenced = [
        f"{path.relative_to(ROOT)}:{first}: {name}"
        for path, name, first, last in defined
        if all(where == path and first <= line <= last for where, line in seen.get(name, []))
    ]
    assert unreferenced == []


def key_space_passes(path: Path) -> list[str]:
    """'file:definition' for each call in path of backward_images whose images
    argument is a ....key_images(...) call, naming the innermost definition
    that holds it."""

    def name(func: ast.expr) -> str | None:
        return getattr(func, "attr", getattr(func, "id", None))

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and name(node.func) == "backward_images"):
            continue
        images = node.args[1:2] + [k.value for k in node.keywords if k.arg == "images"]
        if any(isinstance(arg, ast.Call) and name(arg.func) == "key_images" for arg in images):
            spans = [
                (last - first, definition)
                for definition, first, last in definitions(path)
                if first <= node.lineno <= last
            ]
            found.append(f"{path.name}:{min(spans)[1] if spans else '<module>'}")
    return found


def test_one_builder_turns_a_circuit_into_fault_keys():
    # the enumeration and the Monte Carlo read one fault model: no second
    # key-space pass may build its own keys and verdicts beside fault_model
    package = sorted((ROOT / "src" / "surfenc").glob("*.py"))
    found = [entry for path in package for entry in key_space_passes(path)]
    assert found == ["fault_analysis.py:fault_model"]


def modules_after(script: str) -> set[str]:
    """The names in sys.modules after running script in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_numpy_random_but_not_networkx():
    # numpy.random is loaded at import, not inside the first run; networkx
    # only on the first syndrome above the DP's guard
    loaded = modules_after("import surfenc")
    assert "numpy.random" in loaded
    assert "networkx" not in loaded


def test_a_run_at_the_decode_benchmark_point_leaves_networkx_unloaded():
    # unrotated uea d=7 at p=1e-2: no syndrome of these shots exceeds the guard
    loaded = modules_after(
        "from surfenc import ExperimentConfig, run_experiment\n"
        "config = ExperimentConfig(variant='unrotated', scheme='uea', target='zero',"
        " distances=(7,), noise_strengths=(1e-2,), shots=4096, seed=1)\n"
        "assert run_experiment(config)[0].failures > 0"
    )
    assert "surfenc.harness" in loaded
    assert "networkx" not in loaded
