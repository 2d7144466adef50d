"""The package's public surface: what `quadcong` exports, and that every
public function or class in `src/quadcong/` has a caller inside the package.

Lemma-level helpers that only the tests need live in `tests/lemmas.py`;
the reference guard below keeps them from coming back into `src/`.
"""
import ast
from pathlib import Path

import quadcong

SRC = Path(__file__).resolve().parents[1] / "src" / "quadcong"

PUBLIC_API = {
    "INF", "difference_verdict", "fermat_quotient", "unit_log_series", "vp",
    "CharacterSplit", "QuadChar", "is_fundamental_discriminant", "kronecker",
    "split_character",
    "BernoulliCache", "bernoulli", "gen_bernoulli", "gen_bernoulli_many",
    "ClassNumber", "UnitData", "class_number", "fundamental_unit", "invariants_shell",
    "is_squarefree", "vp_u",
    "CoefficientBundle", "a0_closed_principal", "a1_closed_principal",
    "a1_closed_quadratic", "a_coefficients_direct", "lp1_via_class_number",
    "lp_interp_value", "wilson_quotient",
    "CongruenceReport", "make_report", "rederive_holds",
    "ScanConfig", "check_aac_classical", "check_corollary_exact_division",
    "check_lehmer_diff", "check_lehmer_thm2", "check_super_aacm_criterion",
    "check_super_wilson_criterion", "check_theorem1", "check_theorem3", "scan",
}

# Public names that need no caller inside the package.
UNREFERENCED_OK = {
    # README documents it for third parties re-deriving a verdict from a report line
    "rederive_holds",
}


def test_all_lists_exactly_the_public_api():
    assert len(PUBLIC_API) == 42
    assert set(quadcong.__all__) == PUBLIC_API


def _referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_definition_has_a_caller_in_the_package():
    """A public top-level def or class of a module (not `__init__.py`) must be
    named by some module of the package other than `__init__.py`, its own
    module included; a definition is not a reference to itself."""
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for name, tree in modules.items():
        if name != "__init__.py":
            referenced |= _referenced_names(tree)
    unreferenced = sorted(
        f"{name}:{node.name}"
        for name, tree in modules.items() if name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced | UNREFERENCED_OK
    )
    assert not unreferenced, unreferenced
