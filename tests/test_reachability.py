"""Every public definition in the package has a caller.

A function or class of `src/conormal/<module>.py` is reached when its name
occurs as an identifier somewhere else in `src/conormal`: in another module,
or in its own module outside its definition.  A method or property of a
public class is reached when an attribute of its name is read somewhere in
`src/conormal` outside its own definition; the dunder methods, which the
language calls, are left out.  A re-export in `__init__.py` is not a
caller.  A word in `bench/*.py`, or an attribute read there, also counts,
so that the layer names the benchmark traces by string stay defined.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conormal"

# Definitions kept without a caller, each for the reason given.
ALLOWED = {
    "criteria.curve_degree_verdict": "the monomial-curve verb (ROADMAP item 6) calls it",
    "poly.PolynomialRing.poly": "the acceptance tests and the oracles build polynomials with it",
}


def _identifiers(text, skip=range(0)):
    """The identifier tokens of a module outside the line numbers in `skip`."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return {tok.string for tok in tokens if tok.type == tokenize.NAME and tok.start[0] not in skip}


def _attributes(tree):
    """(name, line) of every attribute read in a parsed module."""
    return [(node.attr, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def _reads(trees):
    """Attribute name -> (module, line) of each read of it."""
    reads = {}
    for module, tree in trees.items():
        for name, line in _attributes(tree):
            reads.setdefault(name, []).append((module, line))
    return reads


def _lines(node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def _unreached():
    modules = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    trees = {name: ast.parse(text) for name, text in modules.items()}
    bench_texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    bench = "\n".join(bench_texts)
    bench_attributes = {name for text in bench_texts for name, _ in _attributes(ast.parse(text))}
    whole = {name: _identifiers(text) for name, text in modules.items()}
    reads = _reads(trees)
    defined, unreached = set(), set()
    for module, text in modules.items():
        for node in trees[module].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            qualified = f"{module[:-3]}.{node.name}"
            defined.add(qualified)
            elsewhere = node.name in _identifiers(text, _lines(node)) or any(
                node.name in names for other, names in whole.items() if other != module
            )
            if not elsewhere and not re.search(rf"\b{node.name}\b", bench):
                unreached.add(qualified)
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                defined.add(f"{qualified}.{method.name}")
                own = _lines(method)
                read = method.name in bench_attributes or any(
                    other != module or line not in own for other, line in reads.get(method.name, ())
                )
                if not read:
                    unreached.add(f"{qualified}.{method.name}")
    return defined, unreached


def test_every_public_definition_is_reached():
    defined, unreached = _unreached()
    assert set(ALLOWED) <= defined, "an allowed name is no longer defined"
    assert all(reason.strip() for reason in ALLOWED.values()), "every allowed name needs a reason"
    assert sorted(unreached - set(ALLOWED)) == []
    assert unreached >= set(ALLOWED), "an allowed name has a caller now; drop it from ALLOWED"
