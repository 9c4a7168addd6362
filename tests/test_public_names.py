"""Every public name earns its place: each name in a module's ``__all__`` is
used by the library, the benchmark or the tools, is compared against by an
acceptance test, or is listed in ``EXEMPT`` with the reason it stays.

A name counts as used where the code loads it outside its own definition:
as a bare name in its own module, through ``from ... import name``, or as
``<module>.name`` (``import ... as`` aliases resolved, and ``x.<module>.name``
accepted for any x).  A bare name that a parameter or an assignment binds in
an enclosing function is that function's local, not the public name, and
does not count.  The walk reads the source with ``ast``; it imports
nothing."""

import ast
from pathlib import Path

import pytest

from hypervol import (mc_oracle, models, orthoscheme, quadrature, shapes, solids, specfun,
                      tetrahedra)

MODULES = {m.__name__.split(".")[-1]: m
           for m in (solids, models, mc_oracle, specfun, orthoscheme, tetrahedra, shapes,
                     quadrature)}
ROOT = Path(__file__).resolve().parents[1]
CALLERS = [*sorted((ROOT / "src" / "hypervol").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "tools").glob("*.py"))]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# (module, name) -> why the name stays without a caller; only ever shrinks
EXEMPT = {
    ("models", "klein_distance"): "test reference: Klein membership and the orthoscheme "
                                  "vertex layout are checked against it",
    ("models", "density"): "test reference: the chart kernels that coordinate_volume "
                           "integrates are checked against it",
}


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The hypervol module ``from ... import`` reads names from, '' for the
    package itself, None for anything else.  Relative imports occur only
    inside the package."""
    module = node.module or ""
    if node.level:
        return module
    if module == "hypervol":
        return ""
    if module.startswith("hypervol."):
        return module.split(".", 1)[1]
    return None


def _locals(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """The names that the function ``node`` binds in its own scope: its
    parameters, and the targets of its assignments, loops, ``with ... as``,
    ``except ... as`` and nested definitions, outside nested functions."""
    args = node.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    stack = list(node.body) if isinstance(node.body, list) else [node.body]
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(child.name)  # its body is a scope of its own
            continue
        if isinstance(child, ast.Lambda):
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            names.add(child.name)
        stack.extend(ast.iter_child_nodes(child))
    return names


def uses(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs loaded in the file at ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    own = path.stem if path.parent.name == "hypervol" else None
    aliases = {}  # local name -> hypervol module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and a.name.startswith("hypervol."):
                    aliases[a.asname] = a.name.split(".", 1)[1]
        elif isinstance(node, ast.ImportFrom):
            module = _imported_module(node)
            for a in node.names:
                if module == "":
                    aliases[a.asname or a.name] = a.name
                elif module is not None:
                    found.add((module, a.name))

    def visit(node, inside: frozenset):
        # inside: the definitions that enclose node, and the locals of the functions among them
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside = inside | _locals(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if own is not None and node.id not in inside:
                found.add((own, node.id))
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.add((aliases[base.id], node.attr))
            elif isinstance(base, ast.Attribute) and base.attr in MODULES:
                found.add((base.attr, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


LOADED = set().union(*map(uses, CALLERS))
ACCEPTED = uses(ACCEPTANCE)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller(module):
    unused = [name for name in MODULES[module].__all__
              if (module, name) not in LOADED | ACCEPTED and (module, name) not in EXEMPT]
    assert not unused, (f"{module}: {unused} have no caller in src/, perfbench/ or tools/ "
                        "and no acceptance test; delete them or exempt them with a reason")


def test_exempt_names_are_public_and_still_without_a_caller():
    for module, name in EXEMPT:
        assert name in MODULES[module].__all__, (module, name)
        assert (module, name) not in LOADED | ACCEPTED, (
            f"{module}.{name} has a caller now; take it off EXEMPT")
