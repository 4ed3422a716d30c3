"""Package hygiene: every exported name exists, the runtime imports
nothing outside the standard library, each module imports only the layers
below it, no import sits inside a function, no module imports a private
name of `connection`, only `symbolic` reaches its sampling internals or
builds a `Func` node directly, only `symbolic` and `catalog` fold
verdicts, `symbolic` divides with `/` only where a float is meant,
its constructors and printers fold constants without `Fraction`, only
`symbolic` imports `fractions`, and its rational normal form, float
evaluator and zero test compute without one, printing builds no node, and in `_linalg` only `minors` builds a minor
table.  That importing `exformal.cli` loads none of the stdlib
modules the engine does not need (`dataclasses` and what it pulls in,
`copy`, and `argparse` and its `gettext`) is checked in a fresh
interpreter by `test_cli.TestImportCost`, and that calling `main` loads
no `argparse`, `gettext` or `locale` either by
`test_cli.TestRepeatedCalls`."""

import ast
import importlib
import os
import pkgutil
import sys

import pytest

import exformal

MODULES = sorted(
    f"exformal.{m.name}" for m in pkgutil.iter_modules(exformal.__path__)
) + ["exformal"]
SOURCES = sorted(
    os.path.join(exformal.__path__[0], f)
    for f in os.listdir(exformal.__path__[0])
    if f.endswith(".py")
)

# Lowest first; a module may import only modules of an earlier layer.  The
# package itself (`__init__`) sits above them all, and `cli` may import it
# for `__version__`.
LAYERS = [("errors",), ("symbolic",), ("_antideriv", "_linalg"), ("exterior",),
          ("geometry",), ("connection",), ("transform",), ("catalog",),
          ("cli",), ("__main__",)]
RANK = {m: i for i, layer in enumerate(LAYERS) for m in layer}


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _own_imports(tree):
    """(imported module, names) for each import of this package's modules;
    the module is "" for the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module or "", [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "exformal":
            yield node.module.partition(".")[2], [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "exformal":
                    yield a.name.partition(".")[2], []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_imports_only_stdlib_and_own_modules(path):
    outside = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        outside.update(
            t for t in tops
            if t != "exformal" and t not in sys.stdlib_module_names
        )
    assert not outside, f"{path} imports {sorted(outside)}"


def test_every_module_has_a_layer():
    assert sorted(RANK) == sorted(m.split(".")[1] for m in MODULES
                                  if m != "exformal")


@pytest.mark.parametrize("module", sorted(RANK))
def test_imports_only_lower_layers(module):
    tree = _tree(os.path.join(exformal.__path__[0], f"{module}.py"))
    for target, names in _own_imports(tree):
        if target == "":
            assert module == "cli" and names == ["__version__"], (
                f"{module} imports {names} from the package")
        else:
            assert RANK[target] < RANK[module], (
                f"{module} (layer {RANK[module]}) imports {target} "
                f"(layer {RANK[target]})")


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_import_inside_a_function(path):
    inside = [
        f"{fn.name} line {node.lineno}"
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not inside, f"{path} imports inside {inside}"


# `connection` is reached only through its public names, so each stage of
# the curvature stack has one binding per module that the benchmark's
# tracer can wrap; a private twin of a stage would be invisible to it.
@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_private_name_of_connection_is_imported(path):
    private = [n for target, names in _own_imports(_tree(path))
               if target == "connection" for n in names if n.startswith("_")]
    assert not private, f"{path} imports {private} from connection"


# The sampling internals of `symbolic`: every other module samples through
# `is_zero` or `_sample_values`, so there is one sampling loop.
SAMPLING = {"_sample_points", "_plan", "_eval_plan"}


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if os.path.basename(p) != "symbolic.py"],
                         ids=os.path.basename)
def test_only_symbolic_samples(path):
    used = {n for _, names in _own_imports(_tree(path)) for n in names} & SAMPLING
    assert not used, f"{path} imports {sorted(used)} from symbolic"


# Every other module calls `func` or `opaque`, which check a call's name
# and order, so no module outside `symbolic` builds a built-in or a
# profile node that skips those checks.
@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if os.path.basename(p) != "symbolic.py"],
                         ids=os.path.basename)
def test_only_symbolic_builds_func_nodes(path):
    calls = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Func"
             or getattr(node.func, "attr", None) == "Func")
    ]
    assert not calls, f"{path} calls Func( directly on lines {calls}"


# Every other module turns a set of residuals into a verdict through
# `_check_residuals`, so the zero tests of a check are folded in one place;
# `catalog` folds only the verdicts of a report's checks.
@pytest.mark.parametrize("path", [p for p in SOURCES if os.path.basename(p)
                                  not in ("symbolic.py", "catalog.py")],
                         ids=os.path.basename)
def test_only_symbolic_and_catalog_fold_verdicts(path):
    lines = [
        node.lineno
        for node in ast.walk(_tree(path))
        if "_fold_verdicts" in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None))
    ]
    assert not lines, f"{path} names _fold_verdicts on lines {lines}"


# The definitions of symbolic.py that may use `/`: the float evaluators.
# Constants are ints when integral, and `/` on two ints is a float, so
# anywhere else it would slip an inexact constant into a tree.
DIVIDING = {"_eval_plan", "_eval_func", "_OpaqueInterp"}


def test_symbolic_divides_only_in_float_code():
    tree = _tree(os.path.join(exformal.__path__[0], "symbolic.py"))
    dividing = {
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Div)
    }
    assert dividing <= DIVIDING, (
        f"symbolic.py divides with '/' in {sorted(dividing - DIVIDING)}")


def test_only_normalize_takes_a_gcd_in_symbolic():
    # the content and lead rule of a base is stated once, in `_normalize`;
    # `_normal_base` asks it instead of restating it; a constant's pair is
    # brought to lowest terms in one place, `_reduced`
    tree = _tree(os.path.join(exformal.__path__[0], "symbolic.py"))
    calling = {
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "gcd"
        and getattr(node.func.value, "id", None) == "math"
    }
    assert calling == {"_normalize", "_reduced"}


# The constructors, the parser's term product and the printers fold
# constants on the (numerator, denominator) pair of a Rat's key.
PAIR_FOLDERS = {"add", "mul", "_expand", "_with_coefficient", "pow_",
                "_product", "_term_text", "to_text"}


def test_constants_fold_without_fractions():
    # a `Fraction` operation is a Python-level call with a gcd; these
    # functions neither make one nor read the `value` that would
    tree = _tree(os.path.join(exformal.__path__[0], "symbolic.py"))
    bodies = [top for top in tree.body
              if getattr(top, "name", None) in PAIR_FOLDERS]
    assert {top.name for top in bodies} == PAIR_FOLDERS
    uses = {
        f"{top.name} uses {getattr(node, 'id', None) or node.attr}"
        for top in bodies
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "value")
    }
    assert not uses, sorted(uses)


def test_only_symbolic_imports_fractions():
    # every other module builds a fractional constant from int Rats, such
    # as pow_(Rat(2), -1) for 1/2, so a `Fraction` is made only where a
    # constant enters or leaves `symbolic`
    importing = {
        os.path.basename(path)
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import)
            and any(a.name == "fractions" for a in node.names))
    }
    assert importing == {"symbolic.py"}


# The rational normal form, the float evaluator and the zero test compute
# on the ints of a Rat's key.
INT_EXACT = {"_normalize", "_divide_exact", "_Rational", "_eval_plan", "is_zero"}


def test_normal_form_computes_without_fractions():
    # neither a `Fraction` nor a Rat's `value`, which makes one; the
    # `self.value` of `_Rational` is its own method, which converts a subtree
    tree = _tree(os.path.join(exformal.__path__[0], "symbolic.py"))
    bodies = [top for top in tree.body if getattr(top, "name", None) in INT_EXACT]
    assert {top.name for top in bodies} == INT_EXACT
    uses = {
        f"{top.name} uses {getattr(node, 'id', None) or node.attr}"
        for top in bodies
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "value"
            and getattr(node.value, "id", None) != "self")
    }
    assert not uses, sorted(uses)


def test_only_minors_builds_a_minor_table_in_linalg():
    # a determinant, cofactor or compound minor is read from the table the
    # caller built and handed on, so no other helper builds one of its own
    tree = _tree(os.path.join(exformal.__path__[0], "_linalg.py"))
    calling = {
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "minors"
    }
    assert calling <= {"minors"}, (
        f"_linalg.py builds a minor table in {sorted(calling - {'minors'})}")


# The node classes and the constructors of `symbolic`, and the helper that
# writes a term with another coefficient.
BUILDERS = {"Rat", "Sym", "Func", "Pow", "Mul", "Add", "rational", "add",
            "mul", "pow_", "neg", "sub", "div", "func", "opaque",
            "_with_coefficient"}


def test_printing_builds_no_node():
    # `_term_text` flips a negative term's sign on its coefficient as it
    # prints, so printing a tree builds no negated term and no monomial
    tree = _tree(os.path.join(exformal.__path__[0], "symbolic.py"))
    printers = {"to_text", "_term_text", "_pow_token"}
    bodies = [top for top in tree.body if getattr(top, "name", None) in printers]
    assert {top.name for top in bodies} == printers
    calls = {
        f"{top.name} calls {node.func.id}"
        for top in bodies
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in BUILDERS
    }
    assert not calls, sorted(calls)
