"""Every public name and every optional parameter of the package has a use
outside the tests.

A public function, class or method of `src/difam` that nothing in `src/`,
`demos/` or `perfbench/` names is either deleted or listed in KEPT with
the reason it stays, so a wrapper that only a test calls fails here until
something uses it.  A name counts as used where it appears as a name, an
attribute or an import anywhere in those trees, other than at its own
definition.

The same holds for a parameter with a default, of any function or method,
private ones included: some call in those trees must pass it, by keyword or
by position, or it is listed in KEPT as `module.function(parameter)`.  A
call is matched to a function by the name it calls, a class name standing
for its `__init__`, and through a plain alias (`search = f if c else g`).
Stdlib only.
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


def _defaulted_parameters(tree: ast.Module, module: str):
    """(module.function(parameter), called name, parameter, positional
    index or None) of each parameter with a default, of each function and
    method; the index counts the arguments a call passes, so not self."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from _parameters(node, f"{module}.{node.name}", node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    qual = f"{module}.{node.name}.{item.name}"
                    yield from _parameters(item, qual, called, 0 if static else 1)


def _parameters(fn: ast.FunctionDef, qual: str, called: str, skip: int):
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)  # the first one with a default
    for index in range(first, len(positional)):
        name = positional[index].arg
        yield f"{qual}({name})", called, name, index - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield f"{qual}({arg.arg})", called, arg.arg, None


def _called(node: ast.AST) -> list[str]:
    """The function names an expression stands for: a name, an attribute,
    or either branch of a conditional."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.IfExp):
        return _called(node.body) + _called(node.orelse)
    return []


def _calls(tree: ast.AST):
    """(called name, call) of every call in a tree, aliases resolved."""
    aliases: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.IfExp):
                aliases.setdefault(target.id, []).extend(_called(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for name in _called(node.func):
                for called in [name] + aliases.get(name, []):
                    yield called, node


def _passes(call: ast.Call, name: str, index) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_parameters(package: dict[str, ast.Module], users: list[ast.AST]) -> set[str]:
    """The defaulted parameters of the package's modules that no call in
    the user trees passes."""
    calls: dict[str, list] = {}
    for tree in users:
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    return {
        qual
        for module, tree in package.items()
        for qual, called, name, index in _defaulted_parameters(tree, module)
        if not any(_passes(call, name, index) for call in calls.get(called, []))
    }


def _trees(root: Path) -> list[ast.Module]:
    return [ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))]


def test_every_public_name_is_used_outside_the_tests_or_kept_with_a_reason():
    unused = unused_public_names()
    kept = {q for q in KEPT if "(" not in q}
    assert unused - kept == set(), "used only by tests: delete, or add to KEPT with a reason"
    assert kept - unused == set(), "used outside the tests now: remove from KEPT"


def test_every_defaulted_parameter_is_passed_outside_the_tests_or_kept_with_a_reason():
    package = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    unpassed = unpassed_parameters(package, [t for root in USERS for t in _trees(root)])
    kept = {q for q in KEPT if "(" in q}
    assert unpassed - kept == set(), "passed only by tests: delete, or add to KEPT with a reason"
    assert kept - unpassed == set(), "passed outside the tests now: remove from KEPT"


def test_the_parameter_scan_finds_a_cap_that_only_tests_pass():
    # anomaly_witness as it was, with a scan cap that only the tests passed
    package = {"designs": ast.parse(
        "def anomaly_witness(design, p, scan_cap=10**4):\n    pass\n\n"
        "class Scan:\n    def __init__(self, design, *, cap=1):\n        pass\n"
    )}
    cli = ast.parse("dz.anomaly_witness(read(path), args.p)\nScan(d)\n")
    assert unpassed_parameters(package, [cli]) == {
        "designs.anomaly_witness(scan_cap)", "designs.Scan.__init__(cap)"
    }
    for call in ("anomaly_witness(d, 5, 50)", "anomaly_witness(d, 5, scan_cap=50)",
                 "anomaly_witness(*args)", "anomaly_witness(**options)",
                 "scan = anomaly_witness if full else other\nscan(d, 5, 50)"):
        assert unpassed_parameters(package, [cli, ast.parse(call)]) == {
            "designs.Scan.__init__(cap)"
        }, call


def test_the_scan_finds_a_wrapper_that_only_tests_call(tmp_path):
    tree = ast.parse("def wrapper():\n    pass\n\ndef used():\n    return wrapper\n")
    defined = {q: line for q, _name, line in _definitions(tree, "m")}
    assert defined == {"m.wrapper": 1, "m.used": 4}
    assert ("wrapper", 5) in set(_uses(tree))
