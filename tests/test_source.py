"""Source hygiene of the package: no module imports a name it never uses
(``__init__`` is left out, because its imports are the public API), every
public function or class has a caller outside the tests, no module reads
another module's underscore names, ``GradedPolynomial`` stays the one
element class, term maps are summed by hand only in the kernel, no module
imports numpy or scipy, no ``CheckResult`` call passes a verdict, no module
indents its JSON, every Python example and every ``spindeq`` command in the
README runs, and every polynomial that the suite and those commands build
has ``CRational`` coefficients only.
"""

import ast
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

import spindeq
from spindeq import CheckResult, CRational, suite
from spindeq.cli import main

PACKAGE = Path(spindeq.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: _unused_imports(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}


def _private_reads(tree: ast.Module) -> list[str]:
    """``module._name`` for each underscore name the module reads from
    another package module, by attribute or by ``from .module import``."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and not node.module
        for alias in node.names
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            out += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            out.append(f"{node.value.id}.{node.attr}")
    return sorted(set(out))


def test_no_module_reads_another_modules_private_names():
    # What one module needs of another is public; ``from . import _graded``
    # names a private module, whose functions are public to the package.
    reads = {path.name: _private_reads(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_no_check_result_call_passes_a_verdict():
    # ``CheckResult.passed`` is derived from the residual and the tolerance,
    # so every call passes name, expected, actual and residual, and at most
    # a tolerance by keyword; a verdict in the old fifth slot is refused.
    calls = [
        (path.name, node.lineno, len(node.args), [k.arg for k in node.keywords])
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "CheckResult"
    ]
    assert len(calls) >= 4
    assert [c for c in calls if c[2] != 4 or set(c[3]) - {"tolerance"}] == []
    assert "passed" not in {f.name for f in dataclasses.fields(CheckResult)}
    with pytest.raises(TypeError):
        CheckResult("r", 1, 1, 0, True)


def test_graded_polynomial_is_the_one_element_class():
    # Every polynomial lives in one class; a subclass would be a second
    # element type, with its own rules for combining with the first.
    subclasses = [cls for cls in spindeq.GradedPolynomial.__subclasses__()
                  if cls.__module__.startswith("spindeq")]
    assert subclasses == []


def _hand_sums(tree: ast.Module) -> list[str]:
    """The functions that add into a dict by hand: each tests ``k in d`` or
    ``k not in d``, reads ``d[k]`` in an arithmetic operation and assigns
    ``d[k]``, as ``out[m] = out[m] + c if m in out else c`` does; each
    pair (k, d) is keyed by the dump of k and the name d."""
    def entry(n):  # d[k] for a named d
        return isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)

    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        tested = {(ast.dump(n.left), n.comparators[0].id) for n in nodes
                  if isinstance(n, ast.Compare) and len(n.ops) == 1
                  and isinstance(n.ops[0], (ast.In, ast.NotIn))
                  and isinstance(n.comparators[0], ast.Name)}
        read = {(ast.dump(side.slice), side.value.id) for n in nodes
                if isinstance(n, ast.BinOp) for side in (n.left, n.right) if entry(side)}
        assigned = {(ast.dump(n.slice), n.value.id) for n in nodes
                    if entry(n) and isinstance(n.ctx, ast.Store)}
        if tested & read & assigned:
            out.append(fn.name)
    return sorted(out)


def test_term_maps_are_summed_by_hand_only_in_the_kernel():
    idiom = (
        "def apply(out, x):\n"
        "    for m, c in x.items():\n"
        "        out[m] = out[m] + c if m in out else c\n"
    )
    assert _hand_sums(ast.parse(idiom)) == ["apply"]
    # Every other module sums term maps with the kernel's add_into and
    # add_product, or with polynomial arithmetic.
    found = {path.name: _hand_sums(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "_graded.py"}
    assert {name: fns for name, fns in found.items() if fns} == {}


def _numeric_imports(tree: ast.Module) -> dict[str, set[str]]:
    """The numeric libraries that each top-level function or method imports,
    by its name; imports outside every function are keyed ``<module>``."""
    out = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                roots = {alias.name.split(".")[0] for alias in child.names}
            elif isinstance(child, ast.ImportFrom):
                roots = {(child.module or "").split(".")[0]}
            else:
                roots = set()
            if roots & {"numpy", "scipy"}:
                out.setdefault(owner, set()).update(roots & {"numpy", "scipy"})
            top = isinstance(child, ast.FunctionDef) and owner == "<module>"
            visit(child, child.name if top else owner)

    visit(tree, "<module>")
    return out


def test_no_module_imports_a_numeric_library():
    # Every computation is exact or on tuples of floats; numpy and scipy
    # stay the tests' oracles.
    found = {path.name: _numeric_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: libraries for name, libraries in found.items() if libraries} == {}


def _indented_dumps(tree: ast.Module) -> list[int]:
    """The lines of ``json.dumps`` or ``json.dump`` calls that pass ``indent=``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dumps", "dump") and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json" and any(k.arg == "indent" for k in node.keywords)
    ]


def test_no_module_indents_its_json():
    # An indent forces the pure-Python encoder; reports are one line of JSON
    # from the C encoder.
    assert _indented_dumps(ast.parse("json.dumps(x, indent=2)\njson.dumps(x)")) == [1]
    found = {path.name: _indented_dumps(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


README = Path(__file__).parents[1] / "README.md"


def test_every_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 3
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_readme_command_runs(capsys):
    # Each `spindeq ...` command the README shows, in backticks or after
    # "$ ", must pass through the command line as written.
    readme = README.read_text()
    commands = re.findall(r"`spindeq ([^`]+)`", readme)
    commands += re.findall(r"^\$ spindeq (.*)$", readme, flags=re.M)
    assert len(commands) >= 7
    for command in commands:
        assert main(shlex.split(command)) == 0, command
    capsys.readouterr()


def test_every_polynomial_has_exact_coefficients(monkeypatch, capsys):
    # One coefficient domain: a polynomial made by the public constructor or
    # wrapped from a kernel result holds CRational coefficients only, a float
    # at its exact binary value.
    cls = spindeq.GradedPolynomial
    wrap, init = cls._wrap.__func__, cls.__init__
    kinds, count = set(), 0

    def record(terms):
        nonlocal count
        kinds.update(map(type, terms.values()))
        count += 1

    def spy_wrap(klass, context, terms):
        record(terms)
        return wrap(klass, context, terms)

    def spy_init(self, context, terms):
        init(self, context, terms)
        record(self.terms)

    monkeypatch.setattr(cls, "_wrap", classmethod(spy_wrap))
    monkeypatch.setattr(cls, "__init__", spy_init)
    suite.run_all(0)
    test_every_readme_command_runs(capsys)
    monkeypatch.undo()
    assert count > 1000 and kinds == {CRational}


# Public names that only tests reach, and why each stays: they are the
# references that tests/test_quantum.py compares kernel_from_symbol against.
_ONLY_TESTS_CALL = {"integral_kernel", "kernel_to_matrix"}


def test_every_public_function_has_a_caller():
    # Each public top-level function or class of a module (``__init__`` is
    # left out) must be named in the package's code, in bench/ or in the
    # README; its own definition does not count.
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    root = Path(__file__).parents[1]
    outside = [root / "README.md", *sorted((root / "bench").rglob("*.py"))]
    text = "\n".join(path.read_text() for path in outside)
    uncalled = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named | _ONLY_TESTS_CALL
        and not re.search(rf"\b{node.name}\b", text)
    ]
    assert uncalled == []
