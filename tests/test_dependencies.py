"""The package is pure Python with no runtime dependencies, its checks
raise rather than assert, and it keeps nothing between calls."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quandles"


def _absolute_imports(node) -> list[str]:
    """The modules an import statement names, outside the package."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for name in _absolute_imports(node):
                top = name.partition(".")[0]
                if top != "__future__" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_package_has_no_assert_statements():
    # `python -O` strips asserts: a check that matters must raise, and a
    # self-test belongs in the tests.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_keeps_no_state_between_calls():
    # Nothing is cached between calls: no functools memo, no `global`, and no
    # module-level dict, list or set that a call could fill.  A memo lives in
    # a local of the call that uses it.
    containers = (
        ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp,
    )
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if any(name.partition(".")[0] == "functools" for name in _absolute_imports(node)):
                found.append(f"{path.name}:{node.lineno}: imports functools")
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}: global {', '.join(node.names)}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            else:
                continue
            names = [
                t.id
                for target in targets
                for t in (target.elts if isinstance(target, ast.Tuple) else [target])
                if isinstance(t, ast.Name)
            ]
            values = value.elts if isinstance(value, ast.Tuple) else [value]
            mutable = any(
                isinstance(v, containers)
                or (
                    isinstance(v, ast.Call)
                    and isinstance(v.func, ast.Name)
                    and v.func.id in ("dict", "list", "set")
                )
                for v in values
            )
            if mutable and names != ["__all__"]:
                found.append(f"{path.name}:{node.lineno}: module-level {', '.join(names)}")
    assert found == []
