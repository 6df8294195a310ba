"""Closed-form numerical verdicts, in exact integer and rational arithmetic,
independent of the Groebner engine.

Conventions: c is the embedding codimension, s the socle degree, e the
multiplicity, q the number of quadric minimal generators when s = 2.
Monomial counts: n_i(c) counts degree-i monomials in c variables,
N_i(c) in c+1 variables.  Square-root comparisons are decided by comparing
squares of integers; no floating point anywhere.
"""

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import ceil, comb

MAX_GRID = 64  # binomials stay far below 2**63 on the supported ranges

NOT_CM = "NotCM"
UNDECIDED = "Undecided"
POSITIVE = "PositiveAnswer"


@dataclass(frozen=True)
class CriteriaVerdict:
    outcome: str  # NotCM | Undecided | PositiveAnswer
    rule: str
    numbers: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.outcome not in (NOT_CM, UNDECIDED, POSITIVE):
            raise ValueError(f"unknown outcome {self.outcome!r}")

    def to_text(self) -> str:
        nums = " ".join(f"{k}={v}" for k, v in sorted(self.numbers.items()))
        return f"{self.outcome} [{self.rule}] {nums}".rstrip()


def _check_range(name, value, low):
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value > MAX_GRID:
        raise ValueError(f"{name}={value} exceeds the supported bound {MAX_GRID}")


def monomial_count(c: int, i: int) -> int:
    """Number of degree-i monomials in c variables (n_i)."""
    _check_range("c", c, 0)
    _check_range("i", i, 0)
    return comb(c - 1 + i, i)


def monomial_count_plus(c: int, i: int) -> int:
    """Number of degree-i monomials in c+1 variables (N_i)."""
    return monomial_count(c + 1, i)


def short_margin(c: int, s: int) -> Fraction:
    """Exact value of prod_{j<c} (2s+j)/(j+2) - prod_{j<c} (s+j+1)/(j+1).

    Positive margin certifies that the square of a short algebra with these
    invariants has length beyond the Cohen-Macaulay target.
    """
    _check_range("c", c, 1)
    _check_range("s", s, 1)
    first = Fraction(1)
    second = Fraction(1)
    for j in range(c):
        first *= Fraction(2 * s + j, j + 2)
        second *= Fraction(s + j + 1, j + 1)
    return first - second


def short_margin_monotonic(c_max: int, s_max: int) -> bool:
    """Monotonicity law of the margin on the grid.

    Wherever the margin is nonnegative it cannot decrease: in s always, and
    in c once c >= 2 and s >= 3.  The law is guarded by nonnegativity
    because the scaling argument behind it multiplies the margin by a factor
    above 1, which proves nothing for negative values (and small-s
    counterexamples do exist).  Nonnegativity therefore propagates up and to
    the right, which is the content actually used downstream.
    """
    _check_range("c_max", c_max, 1)
    _check_range("s_max", s_max, 1)
    for c in range(1, c_max + 1):
        for s in range(1, s_max):
            here = short_margin(c, s)
            if here >= 0 and short_margin(c, s + 1) < here:
                return False
    for c in range(2, c_max):
        for s in range(3, s_max + 1):
            here = short_margin(c, s)
            if here >= 0 and short_margin(c + 1, s) < here:
                return False
    return True


def quadric_count_verdict(c: int, q: int, gorenstein=None) -> CriteriaVerdict:
    """Verdict for a socle-degree-2 quotient with q quadric generators.

    NotCM fires when the quadric count is large enough to cap the
    multiplicity (rule excess-quadrics), or falls inside one of two exact
    square-root windows extracted from degree-4 and degree-5 counts, or in
    the small-codimension special cases (supply the Gorenstein flag to
    enable those), or at the published codimension-6 boundary.
    """
    _check_range("c", c, 3)
    q_max = comb(c + 1, 2)
    if not isinstance(q, int) or not 0 <= q < q_max:
        raise ValueError(f"q must lie in [0, {q_max}), got {q}")
    n2 = monomial_count_plus(c, 2)
    n3_small = monomial_count(c, 3)
    n4_plus = monomial_count_plus(c, 4)
    n5_plus = monomial_count_plus(c, 5)
    numbers = {"c": c, "q": q}

    if 3 * q > c * c + 2 * c:
        numbers["threshold_times_3"] = c * c + 2 * c
        return CriteriaVerdict(NOT_CM, "excess-quadrics", numbers)

    k_b = (2 * c + 1) ** 2 + 8 * (n4_plus - (c + 1) * n2)
    numbers["window4_K"] = k_b
    if k_b > 0 and (2 * q - (2 * c + 1)) ** 2 < k_b:
        return CriteriaVerdict(NOT_CM, "quartic-window", numbers)

    k_c = (2 * n3_small - 2 * c - 1) ** 2 + 8 * (n5_plus - (c + 1) * n2)
    numbers["window5_K"] = k_c
    if k_c > 0 and (2 * q - (2 * c + 1 - 2 * n3_small)) ** 2 < k_c:
        return CriteriaVerdict(NOT_CM, "quintic-window", numbers)

    if gorenstein is not None:
        if c == 3 and not gorenstein:
            return CriteriaVerdict(NOT_CM, "codim3-non-gorenstein", numbers)
        if c == 4:
            return CriteriaVerdict(NOT_CM, "codim4-eight-quadrics", numbers)

    # published sharp boundary in codimension 6: the only open quadric count
    # is 16, one beyond what the windows above reach
    if c == 6 and q == 15:
        return CriteriaVerdict(NOT_CM, "codim6-boundary", numbers)

    return CriteriaVerdict(UNDECIDED, "none", numbers)


def min_codim_forcing_not_cm(t: int) -> int:
    """Smallest c with c > (1 + sqrt(1 + 24(t-1)))/2, decided exactly.

    Past this codimension the square of a multiplicity-(c+t) quotient cannot
    be Cohen-Macaulay.
    """
    _check_range("t", t, 1)
    radicand = 1 + 24 * (t - 1)
    c = 1
    while (2 * c - 1) ** 2 <= radicand:
        c += 1
    return c


def conjectured_counterexample_points(c: int) -> int:
    """1 + c + ceil(c(c-1)/6): the conjectured minimal number of general
    points in P^c whose ideal square is Cohen-Macaulay without Gorenstein."""
    _check_range("c", c, 5)
    return 1 + c + ceil(c * (c - 1) / 6)


def curve_degree_verdict(degrees) -> CriteriaVerdict:
    """Monomial-curve criterion: with n parametrizing power series, an initial
    degree at most n+3 settles the question positively."""
    degrees = tuple(degrees)
    if len(degrees) < 2:
        raise ValueError("a curve needs at least 2 parametrizing functions")
    if any(not isinstance(a, int) or a < 1 for a in degrees):
        raise ValueError(f"degrees must be positive integers, got {degrees}")
    n = len(degrees)
    smallest = min(degrees)
    numbers = {"n": n, "min_degree": smallest, "bound": n + 3}
    if smallest <= n + 3:
        return CriteriaVerdict(POSITIVE, "initial-degree", numbers)
    return CriteriaVerdict(UNDECIDED, "none", numbers)


def low_multiplicity_verdict(c: int, e: int) -> CriteriaVerdict:
    """Multiplicity at most c+4 settles the question positively; so does
    embedding codimension at most 2 regardless of multiplicity."""
    _check_range("c", c, 1)
    if not isinstance(e, int) or e <= c:
        raise ValueError(f"multiplicity must exceed the codimension, got e={e}, c={c}")
    numbers = {"c": c, "e": e}
    if c <= 2:
        return CriteriaVerdict(POSITIVE, "codim-at-most-2", numbers)
    if e <= c + 4:
        return CriteriaVerdict(POSITIVE, "low-multiplicity", numbers)
    return CriteriaVerdict(UNDECIDED, "none", numbers)


def stretched_verdict(c: int, gorenstein: bool) -> CriteriaVerdict:
    """Stretched quotients: the square is never Cohen-Macaulay once c >= 4,
    and in codimension 3 a Cohen-Macaulay square forces Gorenstein."""
    _check_range("c", c, 1)
    numbers = {"c": c, "gorenstein": gorenstein}
    if c >= 4:
        return CriteriaVerdict(NOT_CM, "stretched-codim-ge-4", numbers)
    if c == 3 and not gorenstein:
        return CriteriaVerdict(NOT_CM, "stretched-codim3-non-gorenstein", numbers)
    if c <= 2:
        return CriteriaVerdict(POSITIVE, "codim-at-most-2", numbers)
    return CriteriaVerdict(UNDECIDED, "none", numbers)


def short_socle_verdict(c: int, s: int) -> CriteriaVerdict:
    """Short quotients with socle degree at least 3: the square is never
    Cohen-Macaulay (codimension at least 2)."""
    _check_range("c", c, 1)
    _check_range("s", s, 1)
    numbers = {"c": c, "s": s}
    if s >= 3 and c >= 2:
        return CriteriaVerdict(NOT_CM, "short-socle-ge-3", numbers)
    return CriteriaVerdict(UNDECIDED, "none", numbers)


def undecided_quadric_counts(c: int):
    """All q left undecided by quadric_count_verdict (Gorenstein flag unset)."""
    out = []
    for q in range(comb(c + 1, 2)):
        if quadric_count_verdict(c, q).outcome == UNDECIDED:
            out.append(q)
    return out
