"""The README's library quick tour runs, and every value its comments state holds."""

import ast
import re
from pathlib import Path

from quandles import (
    FiniteGroup,
    dihedral_quandle,
    direct_product,
    find_isomorphism,
    is_homomorphism,
    negation_map,
)

README = Path(__file__).resolve().parent.parent / "README.md"

R3xR5 = direct_product(dihedral_quandle(3), dihedral_quandle(5))

# Comments that are not Python literals, with what each one claims.
CLAIMS = {
    "a witness bijection": lambda f: sorted(f) == list(range(15))
    and is_homomorphism(f, dihedral_quandle(15), R3xR5),
    "(Z_3 x Z_5, {0}, negation)": lambda T: T.group
    == FiniteGroup.direct(FiniteGroup.cyclic(3), FiniteGroup.cyclic(5))
    and T.subgroup == (0,)
    and T.sigma == negation_map(T.group),
    "≅ R_3 x R_5": lambda X: find_isomorphism(X, R3xR5) is not None,
    "[one table, isomorphic to R_5]": lambda reps: len(reps) == 1
    and find_isomorphism(reps[0], dihedral_quandle(5)) is not None,
}


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_quick_tour_states_true_values():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if not comment:
            continue
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            assert comment in CLAIMS, f"no check for README comment {comment!r}"
            assert CLAIMS[comment](value), comment
        else:
            assert value == expected, comment
        checked.append(comment)
    assert sorted(checked) == sorted(["(True, True)", "(9, 5)", *CLAIMS])
