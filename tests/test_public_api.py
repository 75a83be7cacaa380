"""Every public name of the package has a use outside the tests.

A public function, class or method of `src/difam` that nothing in `src/`,
`demos/` or `perfbench/` names is either deleted or listed in KEPT with
the reason it stays, so a wrapper that only a test calls fails here until
something uses it.  A name counts as used where it appears as a name, an
attribute or an import anywhere in those trees, other than at its own
definition.  Stdlib only.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "difam"
USERS = [ROOT / "src", ROOT / "demos", ROOT / "perfbench"]

# module.name or module.Class.method -> why it stays with no use outside the tests
KEPT = {
    "groups.is_binary": "with is_zero_sum_group, the paper's lemma that a finite abelian "
                        "group is zero-sum iff it is not binary; the tests check the lemma",
    "groups.is_zero_sum_group": "see groups.is_binary",
    "groups.generated_subgroup": "the coverage oracle's tests draw their forbidden subgroups "
                                 "from it",
    "families.spread_conditions": "the paper's necessary conditions for a difference family "
                                  "relative to a partial spread",
    "families.theorem82_coverage_forms": "the closed-form multiplicities of the core SDF of "
                                         "Theorem 8.2; the tests compare them with a count",
    "lifting.zero_sum_adjust": "the paper's translation of each block to zero sum when k is "
                               "invertible in the field",
    "lifting.verify_psi": "an independent check of the conditions a class assignment psi "
                          "must meet; the tests check build_psi with it",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name, line) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item.lineno


def _uses(tree: ast.AST):
    """(name, line) of every name, attribute and imported name in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unused_public_names() -> set[str]:
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        definitions += [(q, name, (path, line)) for q, name, line in _definitions(tree, path.stem)]
    used: dict[str, set] = {}
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            for name, line in _uses(ast.parse(path.read_text(), str(path))):
                used.setdefault(name, set()).add((path, line))
    return {q for q, name, at in definitions if not used.get(name, set()) - {at}}


def test_every_public_name_is_used_outside_the_tests_or_kept_with_a_reason():
    unused = unused_public_names()
    assert unused - set(KEPT) == set(), "used only by tests: delete, or add to KEPT with a reason"
    assert set(KEPT) - unused == set(), "used outside the tests now: remove from KEPT"


def test_the_scan_finds_a_wrapper_that_only_tests_call(tmp_path):
    tree = ast.parse("def wrapper():\n    pass\n\ndef used():\n    return wrapper\n")
    defined = {q: line for q, _name, line in _definitions(tree, "m")}
    assert defined == {"m.wrapper": 1, "m.used": 4}
    assert ("wrapper", 5) in set(_uses(tree))
