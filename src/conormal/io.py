"""Ideal file format: a `ring p=<prime> vars=<comma list>` header followed by
one polynomial per line in the standard grammar."""

from .field import PrimeField
from .poly import _DIGITS, DEGREVLEX, ParseError, PolynomialRing
from .groebner import Ideal


def parse_ideal_text(text: str) -> Ideal:
    lines = text.splitlines()
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    stripped = [(no, ln) for no, ln in stripped if ln and not ln.startswith("#")]
    if not stripped:
        raise ParseError("empty ideal file", 1, 1)
    header_no, header = stripped[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "ring":
        raise ParseError(
            f"malformed header {header!r}, expected 'ring p=<prime> vars=<list>'",
            header_no, 1,
        )
    if not parts[1].startswith("p=") or not parts[2].startswith("vars="):
        raise ParseError(f"malformed header {header!r}", header_no, 1)
    modulus = parts[1][2:]
    if not modulus or any(ch not in _DIGITS for ch in modulus):  # as in the body
        raise ParseError(f"modulus {modulus!r} is not an integer", header_no, 1)
    try:
        field = PrimeField(int(modulus))
    except ValueError as exc:
        raise ParseError(str(exc), header_no, 1)
    try:
        ring = PolynomialRing(field, parts[2][5:].split(","), DEGREVLEX)
    except ValueError as exc:
        raise ParseError(str(exc), header_no, 1)
    gens = []
    for no, ln in stripped[1:]:
        gens.append(ring.parse(ln, line=no))
    if not gens:
        raise ParseError("no polynomials after the header", header_no + 1, 1)
    return Ideal(ring, gens)


def parse_ideal_file(path) -> Ideal:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ideal_text(fh.read())
