"""Every module-level function and class of the package is named by the
package, the scripts or the benchmark, not only by the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taperfwm"
CALLER_DIRS = ("src", "scripts", "perfbench")

# kept with callers in the tests alone: the JTA stepper is checked against
# the first-order oracle, and criterion 10 asserts the paper's delay-line
# figures through delay_line_requirements
NO_CALLER_NEEDED = {"perturbative_oracle", "delay_line_requirements"}


def _named(tree):
    """Every identifier, attribute and string constant in a tree; a string
    counts because a tracer may name its target by a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions(tree):
    return [s for s in tree.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_every_package_name_has_a_caller_outside_the_tests():
    defined, named = set(), set()
    for path in sorted(p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_package = path.parent == PACKAGE
        if in_package:
            defined |= {(path.stem, s.name) for s in _definitions(tree)}
        for stmt in tree.body:
            # a definition does not name itself, by recursion or otherwise
            own = getattr(stmt, "name", None) if in_package else None
            named |= {name for name in _named(stmt) if name != own}
    lacking = sorted(f"{module}.{name}" for module, name in defined
                     if name not in named and name not in NO_CALLER_NEEDED)
    assert not lacking, f"named only by the tests, or by nothing: {lacking}"
