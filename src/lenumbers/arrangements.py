"""Central hyperplane arrangements in C^3 as constraint-engine inputs.

The critical locus of a product of pairwise distinct linear forms through the
origin in C^3 is the union of the lines where at least two of the planes
meet.  Every such line is smooth, a generic slice meets it transversely, and
the local singularity at a slice point on a line contained in m planes is
homogeneous of degree m in two variables.  That turns an arrangement into a
fully explicit ``SingularSetup``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .constraints import (
    ComponentData,
    ConstraintReport,
    Finding,
    SingularSetup,
    VERDICT_EXPONENTS,
    full_report,
)
from .cyclo import divisors, homogeneous_char_exponents
from .errors import InputError
from .invariants import moment_forms
from .polynomials import MultiPoly, rational


@dataclass(frozen=True)
class MultiplePoint:
    """A line of the critical locus: primitive direction plus plane count."""

    line: tuple[int, int, int]
    multiplicity: int


@dataclass(frozen=True)
class CentralArrangement3:
    """A reduced central arrangement: pairwise non-proportional plane normals.

    Construction crosses every pair of normals once: a zero cross product is
    a repeated plane, and the pairs are grouped by their common line into the
    multiple points that ``multiple_points`` returns.
    """

    normals: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        if not isinstance(self.normals, (list, tuple)) or not all(
                isinstance(n, (list, tuple)) for n in self.normals):
            raise InputError("'normals' must be a list of triples")
        normals = tuple(tuple(rational(v) for v in n) for n in self.normals)
        object.__setattr__(self, "normals", normals)
        if len(normals) < 2:
            raise InputError("an arrangement needs at least two planes")
        for n in normals:
            if len(n) != 3:
                raise InputError("normals must be triples")
            if not any(n):
                raise InputError("normals must be nonzero")
        # positive rescaling keeps each plane and each line's primitive direction
        ints = [_clear_denominators(n) for n in normals]
        planes: dict[tuple[int, int, int], set[int]] = {}
        for i in range(len(ints)):
            for j in range(i + 1, len(ints)):
                cross = _cross(ints[i], ints[j])
                if not any(cross):
                    raise InputError(
                        f"normals {i} and {j} are proportional: repeated plane")
                planes.setdefault(_primitive_direction(cross), set()).update((i, j))
        object.__setattr__(self, "_multiple_points", tuple(
            MultiplePoint(line, len(members)) for line, members in sorted(planes.items())))

    @property
    def d0(self) -> int:
        return len(self.normals)


def _cross(a: Sequence, b: Sequence) -> tuple:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def _clear_denominators(v: Sequence[Fraction]) -> tuple[int, ...]:
    denom = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (denom // c.denominator) for c in v)


def _primitive_direction(v: Sequence[int]) -> tuple[int, int, int]:
    """v over the gcd of its entries, signed so that its first nonzero entry is positive."""
    x, y, z = v
    g = gcd(x, y, z)
    if (x or y or z) < 0:
        g = -g
    return x // g, y // g, z // g


def multiple_points(arr: CentralArrangement3) -> tuple[MultiplePoint, ...]:
    """The distinct intersection lines, each with its plane count m >= 2.

    Every pair of planes meets in exactly one of the lines, so the counts
    satisfy sum C(m, 2) = C(d0, 2).
    """
    return arr._multiple_points


def to_setup(arr: CentralArrangement3) -> SingularSetup:
    """Numeric slice data of the arrangement, with n = 2.

    A generic plane section is d0 distinct concurrent lines in C^2, so
    mu0 = (d0 - 1)^2; each critical line contributes a transverse singularity
    homogeneous of degree m with k = 1.
    """
    d0 = arr.d0
    points = multiple_points(arr)
    # ComponentData is frozen, so the lines of one multiplicity share one
    shared = {m: ComponentData(k=1, mu=(m - 1) ** 2, d=m)
              for m in {p.multiplicity for p in points}}
    components = tuple(shared[p.multiplicity] for p in points)
    return SingularSetup(n=2, mu0=(d0 - 1) ** 2, d0=d0, components=components)


def pick_slice_form(arr: CentralArrangement3) -> tuple[int, int, int]:
    """The first form (1, t, t^2), t = 0, 1, ..., not vanishing on any critical line.

    A line v meets (1, t, t^2) only where v0 + v1*t + v2*t^2 = 0, which has at
    most two roots, so at most 2L + 1 forms are tried for L critical lines.
    """
    lines = [p.line for p in multiple_points(arr)]
    return next(form for form in moment_forms(3) if all(_dot(form, line) for line in lines))


def validate_slice_form(arr: CentralArrangement3, form: Sequence) -> tuple[int, int, int]:
    coeffs = tuple(rational(c) for c in form)
    if len(coeffs) != 3 or not any(coeffs):
        raise InputError("slice form must be a nonzero triple")
    for p in multiple_points(arr):
        if not _dot(coeffs, p.line):
            raise InputError(
                f"slice form vanishes on the critical line {list(p.line)}; "
                "choose a form transverse to every line")
    return _primitive_direction(_clear_denominators(coeffs))


def defining_polynomial(arr: CentralArrangement3) -> MultiPoly:
    """The product of the linear forms, in variables (x, y, z)."""
    result = MultiPoly.constant(1, 3)
    for n in arr.normals:
        form = MultiPoly([((1, 0, 0), n[0]), ((0, 1, 0), n[1]), ((0, 0, 1), n[2])], 3)
        result = result * form
    return result


def arrangement_report(arr: CentralArrangement3,
                       z0: Sequence | None = None) -> ConstraintReport:
    """Constraint report for the arrangement, with per-k exponent ceilings.

    For every divisor k of d0 the ceiling is the exponent of Phi_k in the
    divisor bound: the gcd caps it by a0 (k = 1) or b0 (k > 1) and by the
    exponent available in the component product, so k surviving requires k
    to divide some local degree.
    """
    slice_form = (pick_slice_form(arr) if z0 is None
                  else validate_slice_form(arr, z0))
    report = full_report(to_setup(arr))
    a0, b0 = homogeneous_char_exponents(2, arr.d0)
    ceilings = {str(k): report.divisor_bound.exponent(k) for k in divisors(arr.d0)}
    points = multiple_points(arr)
    extra = Finding(
        VERDICT_EXPONENTS,
        f"admissible cyclotomic exponents over the divisors of d0 = {arr.d0}: "
        + ", ".join(f"Phi_{k} <= {ceiling}" for k, ceiling in ceilings.items()),
        {
            "a0": a0,
            "b0": b0,
            "ceilings": ceilings,
            "d0": arr.d0,
            "lines": [list(p.line) for p in points],
            "line_multiplicities": [p.multiplicity for p in points],
            "slice_form": list(slice_form),
        })
    return replace(report, verdicts=report.verdicts + (extra,))
