"""Exact commutative algebra toolkit over prime fields.

Groebner bases, Hilbert functions, socles and Artinian invariants,
vanishing ideals of point configurations in projective space, and
Cohen-Macaulayness verdicts for squares of ideals, with a deterministic
experiment harness on top.
"""

__version__ = "0.1.0"

from .field import PrimeField
from .poly import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    PolynomialRing,
    random_linear_form,
)
from .groebner import (
    BudgetExceededError,
    DEFAULT_STEP_BUDGET,
    GroebnerBasis,
    Ideal,
    buchberger,
    contains,
    ideal_square,
    is_zero_dimensional,
    normal_form,
)
