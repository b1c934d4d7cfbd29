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
    cyclo_product,
    cyclotomic,
    factor_unity,
    homogeneous_char,
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
from .localring import (
    Budget,
    Ideal,
    LocalOrder,
    StandardBasis,
    colength,
    ideal,
    ideal_quotient,
    ideal_sum,
    ideals_equal,
    mora_divide,
    mora_reduce,
    saturate,
    standard_basis,
)
from .invariants import (
    AnalysisResult,
    LeInvariants,
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
    Finding,
    SingularSetup,
    acampo_validate,
    non_splitting_verdict,
    rank_attained_cases,
    cyclic_kernel_rank,
    divisibility_bound,
    full_report,
    lambda1_from_components,
    rank_bound,
)
from .arrangements import (
    CentralArrangement3,
    MultiplePoint,
    arrangement_report,
    defining_polynomial,
    multiple_points,
    pick_slice_form,
    to_setup,
)

__version__ = "0.1.0"
