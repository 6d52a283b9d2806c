"""Every module-level function and class of the package is named by the
package, the scripts or the benchmark, not only by the tests; every field
of a package dataclass is read there; and every parameter default of a
package function or class is overridden by a call there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taperfwm"
CALLER_DIRS = ("src", "scripts", "perfbench")

# kept with callers in the tests alone: read_cjm1 is the cjm1 format's own
# reader, through which the tests read every dump back
NO_CALLER_NEEDED = {"read_cjm1"}

# dataclasses whose fields need no reader of their own: the five config
# sections are the config schema, whose fields are read by name (spectral
# builds "l_d_<field>" with getattr); MetricsReport and ErfFit are written
# whole through asdict
NO_READER_NEEDED = {"PumpSpec", "GeometrySpec", "DispersionSet", "MismatchModel",
                    "NumericsSpec", "MetricsReport", "ErfFit"}

# parameters with a default that no call passes: file and line of
# cli._print_warning complete the warnings.showwarning signature
NO_PASSER_NEEDED = {("_print_warning", "file"), ("_print_warning", "line")}


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


def _defaulted(fn, method=False):
    """(index among the positional parameters or None, name) of each
    parameter of fn that has a default; a method's first parameter, which
    no call passes in its parentheses, is not counted."""
    a = fn.args
    positional = (a.posonlyargs + a.args)[method:]
    first = len(positional) - len(a.defaults)
    for k, arg in enumerate(positional[first:], first):
        yield k, arg.arg
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _callee(node):
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def test_every_parameter_default_is_overridden_outside_the_tests():
    """A call overrides a default by keyword, or by position (a *args or a
    **kwargs passes everything); a class is matched by its name and a
    method by its attribute name."""
    defaults, passed = set(), set()
    for path, tree in _trees():
        if path.parent == PACKAGE:
            for d in _definitions(tree):
                if isinstance(d, ast.ClassDef):
                    for m in d.body:
                        if isinstance(m, ast.FunctionDef):
                            name = d.name if m.name == "__init__" else m.name
                            defaults |= {(name, k, p) for k, p in _defaulted(m, method=True)}
                else:
                    defaults |= {(d.name, k, p) for k, p in _defaulted(d)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                kwargs = any(kw.arg is None for kw in node.keywords)
                passed.add((_callee(node), len(node.args), starred or kwargs,
                            frozenset(kw.arg for kw in node.keywords)))
    unpassed = sorted(f"{fn}.{p}" for fn, k, p in defaults if (fn, p) not in NO_PASSER_NEEDED
                      and not any(callee == fn and (every or p in kws or (k is not None and k < n))
                                  for callee, n, every, kws in passed))
    assert not unpassed, f"defaults that only the tests override, or nothing: {unpassed}"
