"""Every public top-level definition in the package has a caller.

A function or class of `src/conormal/<module>.py` is reached when its name
occurs as an identifier somewhere else in `src/conormal`: in another module,
or in its own module outside its definition.  A re-export in `__init__.py`
is not a caller.  A word in `bench/*.py` also counts, so that the layer
names the benchmark traces by string stay defined.
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
    "curve_degree_verdict": "the monomial-curve verb (ROADMAP item 6) calls it",
    "short_margin_monotonic": "acceptance criterion 2 checks the margin law with it",
}


def _identifiers(text, skip=range(0)):
    """The identifier tokens of a module outside the line numbers in `skip`."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return {tok.string for tok in tokens if tok.type == tokenize.NAME and tok.start[0] not in skip}


def _unreached():
    modules = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    bench = "\n".join(path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py")))
    whole = {name: _identifiers(text) for name, text in modules.items()}
    defined, unreached = set(), set()
    for module, text in modules.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.add(node.name)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first, node.end_lineno + 1)
            elsewhere = node.name in _identifiers(text, own) or any(
                node.name in names for other, names in whole.items() if other != module
            )
            if not elsewhere and not re.search(rf"\b{node.name}\b", bench):
                unreached.add(f"{module[:-3]}.{node.name}")
    return defined, unreached


def test_every_public_definition_is_reached():
    defined, unreached = _unreached()
    assert set(ALLOWED) <= defined, "an allowed name is no longer defined"
    allowed = {name for name in unreached if name.split(".")[1] in ALLOWED}
    assert sorted(unreached - allowed) == []
    assert len(allowed) == len(ALLOWED), "an allowed name has a caller now; drop it from ALLOWED"
