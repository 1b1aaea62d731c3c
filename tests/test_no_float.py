"""No floating point in a verdict: every module of the package is scanned for it.

`cli` (timing) and `errors` (an input type check) are left out on purpose; a
new module is scanned without being listed.
"""

import ast
from pathlib import Path

import pytest

import hsa_lab

UNSCANNED = {"cli", "errors"}
VERDICT_MODULES = sorted(path.stem for path in Path(hsa_lab.__file__).parent.glob("*.py")
                         if path.stem not in UNSCANNED)
FLOAT_ATTRS = ("log", "float")  # prefixes, as in np.log2 or np.float64
FLOAT_ATTRS_EXACT = ("sqrt", "exp")


def float_uses(source: str) -> list[str]:
    """Each use of floating point in source, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{node.lineno}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"{node.lineno}: float(...)")
        elif isinstance(node, ast.Attribute) and (node.attr.startswith(FLOAT_ATTRS)
                                                  or node.attr in FLOAT_ATTRS_EXACT):
            found.append(f"{node.lineno}: attribute {node.attr}")
    return found


@pytest.mark.parametrize("module", VERDICT_MODULES)
def test_no_floating_point_in_verdict_modules(module):
    path = Path(hsa_lab.__file__).parent / f"{module}.py"
    assert float_uses(path.read_text(encoding="utf-8")) == []


def test_scan_sees_every_kind_of_float_use():
    uses = ["x / 2", "y /= 3", "z = 0.5", "float(1)", "np.log2(4)", "math.sqrt(2)",
            "np.float64(1)", "np.exp(1)"]
    assert [len(float_uses(u)) for u in uses] == [1] * len(uses)
    assert float_uses("x // 2\nFraction(1, 2)\nnp.int64(1)\n") == []


def test_every_module_but_cli_and_errors_is_scanned():
    assert {"gf", "topology", "bounds", "schemes", "protocol", "verify"} <= set(VERDICT_MODULES)
    assert not UNSCANNED & set(VERDICT_MODULES)
