"""Hygiene of the library modules, checked on their syntax trees:
imports sit at module level, every imported name is used, no module
multiplies matrices with `@`, integer numerators are reduced in
`laurent` alone, the Laurent division visits only nonzero taps, no
pattern spells a digit `\\d`, samples cross into and out of packed
windows in C, checked windows test their digits in C, and exact
transform outputs leave the window in lowest terms."""

import ast
from pathlib import Path

import pytest

import liftbank

MODULES = sorted(Path(liftbank.__file__).parent.glob("*.py"))


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    mod = tree(path)
    top = {id(node) for node in mod.body}
    late = [node.lineno for node in ast.walk(mod)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert not late, f"{path.name}: imports below module level at lines {late}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imported_names_used(path):
    mod = tree(path)
    imported = {}
    for node in mod.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(mod) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_matrix_product_operator(path):
    # Cascades multiply out by the filter ladder and the gain; the 2x2 `@`
    # product stays public as the reference the tests check them against.
    lines = [node.lineno for node in ast.walk(tree(path))
             if isinstance(getattr(node, "op", None), ast.MatMult)]
    assert not lines, f"{path.name}: `@` at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_reduction_stays_in_laurent(path):
    # The gcd reduction and the lcm tap builder live behind laurent's
    # _canonical and _from_ratios; the peel and the parsers call those.
    nodes = list(ast.walk(tree(path)))
    from_math = {alias.name for node in nodes
                 if isinstance(node, ast.ImportFrom) and node.module == "math"
                 for alias in node.names}
    if any(isinstance(node, ast.Import) and any(a.name == "math" for a in node.names)
           for node in nodes):
        from_math |= {"math"} | {node.attr for node in nodes if isinstance(node, ast.Attribute)
                                 and getattr(node.value, "id", None) == "math"}
    if path.name in ("factor.py", "formats.py"):
        assert not from_math, f"{path.name}: uses {sorted(from_math)} from math"
    elif path.name != "laurent.py":
        assert "gcd" not in from_math, f"{path.name}: uses gcd"


def test_division_visits_only_nonzero_taps():
    # laurent_divmod cancels the remainder's own end taps; a range() over
    # the window's indices would make its cost follow the width again.
    path = Path(liftbank.__file__).parent / "factor.py"
    divmod_ = next(node for node in tree(path).body
                   if isinstance(node, ast.FunctionDef) and node.name == "laurent_divmod")
    lines = [node.lineno for node in ast.walk(divmod_) if isinstance(node, ast.Name)
             and node.id == "range"]
    assert not lines, f"laurent_divmod: range at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_regex_digits_are_ascii(path):
    # In a str pattern `\d` also matches digits such as U+0663, which int()
    # reads as 3, so a pattern with it would take non-ASCII tap indices.
    # Patterns spell digits `[0-9]`.
    lines = [node.lineno for node in ast.walk(tree(path))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "\\d" in node.value]
    assert not lines, f"{path.name}: `\\d` in string literals at lines {lines}"


def test_window_samples_cross_in_c():
    # The reader _read and _Window._pack, _unpack and _widen move every
    # sample of a mapping or a window: through list, sorted, map, struct,
    # int.from_bytes/to_bytes and memoryview, never through a Python loop
    # per sample.  A loop may only count limbs or channels.
    path = Path(liftbank.__file__).parent / "transform.py"
    module = tree(path).body
    window = next(node for node in module
                  if isinstance(node, ast.ClassDef) and node.name == "_Window")
    methods = [node for node in window.body + module if isinstance(node, ast.FunctionDef)
               and node.name in ("_pack", "_unpack", "_widen", "_read")]
    assert len(methods) == 4
    for method in methods:
        nodes = list(ast.walk(method))
        comps = [node.lineno for node in nodes
                 if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))]
        loops = [node.lineno for node in nodes if isinstance(node, (ast.For, ast.While))
                 and not (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                          and getattr(node.iter.func, "id", None) == "range")]
        assert not comps, f"{method.name}: comprehensions at lines {comps}"
        assert not loops, f"{method.name}: loops not over range() at lines {loops}"


def test_checked_windows_test_digits_in_c():
    # _Window._fits tests every digit of a window with one add and one
    # AND, and _Checked._lift keeps one bound per channel: neither walks
    # the samples or the taps in Python.
    path = Path(liftbank.__file__).parent / "transform.py"
    classes = {node.name: node for node in tree(path).body if isinstance(node, ast.ClassDef)}
    methods = [(cls, node) for cls, name in (("_Window", "_fits"), ("_Checked", "_lift"))
               for node in classes[cls].body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(methods) == 2
    for cls, method in methods:
        found = [node.lineno for node in ast.walk(method)
                 if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                                      ast.For, ast.While))]
        assert not found, f"{cls}.{method.name}: loops or comprehensions at lines {found}"


def test_exact_outputs_are_reduced_by_the_window():
    # _Window._unpack hands out each channel in lowest terms and the gain is
    # two scalar factors, so transform.py neither reduces a polynomial again
    # nor builds the gain matrix D_K.
    path = Path(liftbank.__file__).parent / "transform.py"
    found = [(node.lineno, name) for node in ast.walk(tree(path))
             for name in [getattr(node, "id", None) or getattr(node, "attr", None)]
             if name in ("_reduced", "_canonical", "scaling_matrix")]
    assert not found, f"transform.py: {found}"
