"""Exact invariants and monodromy constraints for hypersurface singularities
with a one-dimensional critical locus.

The package is organized bottom-up:

* ``polynomials`` - exact polynomial arithmetic over Q, the one polynomial type;
* ``cyclo`` - characteristic polynomials in factored cyclotomic form;
* ``localring`` - Mora division, local standard bases, colengths, quotients;
* ``invariants`` - the slice pipeline: mu0, polar curve, lambda0/1, omega;
* ``constraints`` - divisor/rank bounds and non-splitting verdicts;
* ``arrangements`` - central plane arrangements in C^3 as setups;
* ``cli`` - the command-line front end.
"""

from .cyclo import (
    CycloProduct,
    cyclotomic,
    factor_unity,
    homogeneous_char_exponents,
    mobius,
    totient,
)
from .errors import (
    GenericityError,
    InputError,
    InvariantViolationError,
    LeNumbersError,
    PolyParseError,
    ResourceLimitError,
)
from .polynomials import Monomial, MultiPoly, parse_poly
from .localring import Budget, colength, ideal
from .invariants import (
    SliceSetup,
    analyze_poly,
    compute_all,
    lambda0,
    lambda1,
    mu0,
    omega,
    polar_ideal,
    slice_with_form,
)
from .intlinalg import smith_normal_form
from .constraints import (
    ComponentData,
    ConstraintReport,
    SingularSetup,
    non_splitting_verdict,
    rank_attained_cases,
    full_report,
)
from .arrangements import CentralArrangement3, defining_polynomial, pick_slice_form

__version__ = "0.1.0"
