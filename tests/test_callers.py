"""Every module-level function and class of the package is named by the
package, the scripts or the benchmark, not only by the tests; and every
field of a package dataclass is read there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taperfwm"
CALLER_DIRS = ("src", "scripts", "perfbench")

# kept with callers in the tests alone: the JTA stepper is checked against
# the first-order oracle, criterion 10 asserts the paper's delay-line
# figures through delay_line_requirements, and read_cjm1 is the cjm1
# format's own reader, through which the tests read every dump back
NO_CALLER_NEEDED = {"perturbative_oracle", "delay_line_requirements", "read_cjm1"}

# dataclasses whose fields need no reader of their own: the five config
# sections are the config schema, whose fields are read by name (spectral
# builds "l_d_<field>" with getattr); MetricsReport is written whole
# through asdict; DelayLineSpec is what the exempt delay_line_requirements
# returns
NO_READER_NEEDED = {"PumpSpec", "GeometrySpec", "DispersionSet", "MismatchModel",
                    "NumericsSpec", "MetricsReport", "DelayLineSpec"}


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


def _trees():
    """(path, syntax tree) of every Python file that may call the package."""
    for path in sorted(p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_package_name_has_a_caller_outside_the_tests():
    defined, named = set(), set()
    for path, tree in _trees():
        if path.parent == PACKAGE:
            defined |= {(path.stem, s.name) for s in _definitions(tree)}
            for stmt in tree.body:
                # a definition does not name itself, by recursion or otherwise
                own = getattr(stmt, "name", None)
                named |= {name for name in _named(stmt) if name != own}
        else:
            # a name the file defines itself is its own, not the package's
            own = {s.name for s in _definitions(tree)}
            named |= set(_named(tree)) - own
    lacking = sorted(f"{module}.{name}" for module, name in defined
                     if name not in named and name not in NO_CALLER_NEEDED)
    assert not lacking, f"named only by the tests, or by nothing: {lacking}"


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _read(tree):
    """Every attribute read and string constant in a tree: a field that is
    only assigned, by keyword or by attribute, is read by nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    fields, read = set(), set()
    for path, tree in _trees():
        read |= set(_read(tree))
        if path.parent == PACKAGE:
            for cls in _definitions(tree):
                if (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                        and cls.name not in NO_READER_NEEDED):
                    fields |= {(cls.name, s.target.id) for s in cls.body
                               if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert not unread, f"dataclass fields read only by the tests, or by nothing: {unread}"
