"""The oracles stay independent of the production paths they check."""
import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
ALLOWED = {"quadcong.characters", "quadcong.padic"}


def _quadcong_imports(tree: ast.AST) -> set[str]:
    """Every quadcong module an import statement anywhere in tree names;
    `from quadcong import x` counts as quadcong.x."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "quadcong":
            names = [f"quadcong.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found.update(n for n in names if n == "quadcong" or n.startswith("quadcong."))
    return found


def test_oracles_import_only_characters_and_padic():
    probe = ("import quadcong.bernoulli\n"
             "from quadcong import suite\n"
             "def f():\n    from quadcong.lseries import wilson_quotient\n")
    assert _quadcong_imports(ast.parse(probe)) == {
        "quadcong.bernoulli", "quadcong.suite", "quadcong.lseries"}
    imported = _quadcong_imports(ast.parse(ORACLES.read_text(), filename=str(ORACLES)))
    assert imported and imported <= ALLOWED, sorted(imported - ALLOWED)
