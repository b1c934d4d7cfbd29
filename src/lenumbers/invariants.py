"""The slice-invariant pipeline for a one-dimensional critical locus.

Given f on C^{n+1} and a linear slice form (arranged to be the first
coordinate), this module computes the Milnor number of the sliced function,
the relative polar curve, the Le numbers lambda^0 and lambda^1, and the polar
intersection number omega, together with the checkable genericity verdicts.

Intersection numbers are realized as colengths of ideal sums.  On a
Cohen-Macaulay curve and a parameter h, length equals intersection
multiplicity, and every curve the pipeline accepts is Cohen-Macaulay:

* When mu0 = colength(I + (z0)) is finite, the n non-slice partials
  I = (d_1 f, ..., d_n f) cut out a curve in C^{n+1}, an unmixed complete
  intersection, so O/I is Cohen-Macaulay.
* Then neither f nor ∂f/∂z0 vanishes on a branch of the polar curve, since
  d(f)/dt = ∂f/∂z0 · d(z0)/dt there, and both vanish on Σ(f), so
  Γ = (I : f^infinity) = (I : (∂f/∂z0)^infinity) (Massey, LNM 1615).
* Multiplication by ∂f/∂z0 embeds O/J in O/I for J = (I : ∂f/∂z0), and for
  its saturation, so O/J is zero or Cohen-Macaulay of dimension 1
  (Matsumura, Commutative Ring Theory, sections 14 and 17).  A finite
  omega = colength(J + (f)) makes f a parameter, hence a nonzerodivisor, of
  O/J, so no branch of O/J lies in Σ(f) and ∂f/∂z0 is a nonzerodivisor too:
  J = Γ after one colon step.
* colength(J + (z0)) = e(z0; O/J) >= e(m; O/J), with equality iff z0 is
  transverse to the curve; a larger colength is a genericity verdict.
  Equality alone makes z0 a nonzerodivisor, so O/J is Cohen-Macaulay even
  for a direct caller whose mu0 is infinite.
* omega is finite once mu0 is: f is then a nonzerodivisor of Γ, a
  parameter of O/Γ, so Γ + (f) is m-primary.
* For f homogeneous of degree d, O/J is graded, and colength(J + (f)) =
  d·e(m; O/J) + length(0 :_{O/J} f), so omega = d·e(m; O/J) makes f a
  nonzerodivisor and O/J Cohen-Macaulay.  The linear parameter z0 then
  generates a reduction of m, so colength(J + (z0)) = e(m; O/J): the curve
  is certified without that colength.

The curve carries two intersection numbers, with z0 and with f; lambda0, the
third, follows from them by Teissier's lemma (see ``lambda0``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice
from typing import Sequence

from .errors import GenericityError, InputError, ResourceLimitError
from .localring import (Budget, Ideal, LocalOrder, colength, ideal, ideal_quotient, ideal_sum,
                        leading, multiplicity, saturate)
from .polynomials import MultiPoly, integer, rational, variable_index

GENERICITY_SCOPE_WARNING = (
    "genericity of the slice form is checked only through finiteness of mu0 "
    "and omega and transversality to the polar curve; transversality to the "
    "critical locus is not certified"
)

# moment-curve forms analyze_poly tries after the coordinate forms
_MOMENT_FORMS_TRIED = 12

_OMEGA_INFINITE = "omega is infinite: the slice form is not generic"


@dataclass(frozen=True)
class SliceSetup:
    """f in coordinates where the slice form is variable 0.

    The original slice coefficients, when the setup came from a coordinate
    change, are kept for reporting only.
    """

    f: MultiPoly
    z0_coefficients: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.f.nvars < 2:
            raise InputError("need at least two variables (slice plus one)")
        if self.f.is_zero:
            raise InputError("f must be nonzero")
        if self.f.constant_term():
            raise InputError("f must vanish at the origin")
        if any(sum(mono) == 1 for mono in self.f.terms):
            raise InputError("the origin must be a critical point of f")

    @property
    def n(self) -> int:
        """Ambient dimension parameter: f lives on C^{n+1}."""
        return self.f.nvars - 1


def _finite(value: int | None, message: str) -> int:
    """value, or ``GenericityError(message)`` when it is None (infinite)."""
    if value is None:
        raise GenericityError(message)
    return value


def mu0(setup: SliceSetup, budget: Budget | None = None) -> int:
    """Milnor number of the sliced function at the origin.

    Raises ``GenericityError`` when it is infinite: the slice hyperplane then
    does not cut the critical locus down to the origin, i.e. the slice form is
    not generic.
    """
    f0 = setup.f.restrict_first_var()
    return _finite(colength(ideal([f0.partial(i) for i in range(f0.nvars)], f0.nvars), budget),
                   "mu0 is infinite: the sliced function has a non-isolated singularity")


@dataclass(frozen=True)
class PolarCurve:
    """The relative polar curve Γ with its intersection numbers colength(Γ + (z0))
    and colength(Γ + (f))."""

    ideal: Ideal
    slice_colength: int
    f_colength: int


def polar_ideal(setup: SliceSetup, budget: Budget | None = None) -> PolarCurve:
    """The relative polar curve: the non-slice partials saturated by ∂f/∂z0.

    The form is expected to have a finite mu0, so that the checks of the
    module docstring apply: J = (I : ∂f/∂z0) is the curve when it is the unit
    ideal or omega(J) is finite, and otherwise the curve is
    ``saturate(J, ∂f/∂z0)``.  J is the unit ideal when ∂f/∂z0 = 0: then
    Σ(f) = V(I), and no branch is left.  J, not I, is handed in because the
    elimination basis grows with its input: from I it took 1.4 s on 6 planes
    and more than 60 s on 7, from J 0.01–0.02 s and 0.04–0.07 s (single runs
    on one core of a shared VM).  An infinite omega on the saturated curve,
    so an infinite mu0, raises omega's verdict.  A finite omega makes lambda0
    and lambda1 finite: d(f)/dt = ∂f/∂z0 · d(z0)/dt on a branch of Γ, so f
    vanishes on any branch where z0 or ∂f/∂z0 does.
    For f homogeneous of degree d, omega = d·e(m; O/J) certifies the curve.
    Without that certificate, colength(Γ + (z0)) is checked against the
    multiplicity once: a slice form tangent to the curve raises
    ``GenericityError``, with any mu0.  e(m; O/J) is read off the leading
    monomials of J's generators, which ``ideal_quotient`` and ``saturate``
    return as a ``LocalOrder`` standard basis, so J is not completed again.
    """
    f, n, d = setup.f, setup.f.nvars, setup.f.total_degree()
    budget = budget if budget is not None else Budget()
    unit = ideal([MultiPoly.constant(1, n)], n)
    g = f.partial(0)
    J = ideal_quotient(ideal([f.partial(i) for i in range(1, n)], n), g, budget) if g else unit
    if J == unit:
        return PolarCurve(J, 0, 0)
    f_colength = colength(ideal_sum(J, ideal([f], n)), budget)
    if f_colength is None:
        J = saturate(J, g, budget)
        if J == unit:
            return PolarCurve(J, 0, 0)
        f_colength = _finite(colength(ideal_sum(J, ideal([f], n)), budget), _OMEGA_INFINITE)
    e = multiplicity([leading(q, LocalOrder())[0] for q in J.generators], n, budget)
    if e is not None and f_colength == d * e and all(sum(m) == d for m in f.terms):
        return PolarCurve(J, e, f_colength)
    slice_colength = colength(ideal_sum(J, ideal([MultiPoly.variable(0, n)], n)), budget)
    if slice_colength != e:
        raise GenericityError(
            f"the slice form is tangent to the polar curve: colength(polar + (z0)) "
            f"= {slice_colength} exceeds its multiplicity {e}")
    return PolarCurve(J, slice_colength, f_colength)


def lambda0(polar: PolarCurve) -> int:
    """The 0-dimensional Le number (Γ . V(∂f/∂z0)), read off the curve as
    omega - (Γ . V(z0)) by Teissier's lemma.

    On a branch of Γ parametrized by t, ∂f/∂z_i vanishes for i >= 1, so
    d(f)/dt = ∂f/∂z0 · d(z0)/dt and ord f = ord ∂f/∂z0 + ord z0.  Γ is
    Cohen-Macaulay, so colength(Γ + (h)) = e(h; O/Γ) is the sum of ord h over
    the branches, each counted with its length in O/Γ; summing the branch
    identity gives (Γ . V(f)) = (Γ . V(∂f/∂z0)) + (Γ . V(z0)) (Teissier,
    Variétés polaires I, 1977; Massey, LNM 1615).
    """
    return polar.f_colength - polar.slice_colength


def omega(polar: PolarCurve) -> int:
    """The polar intersection number with V(f) itself.

    omega >= lambda0 needs no check: by Teissier's lemma omega - lambda0 =
    colength(Γ + (z0)), which is at least 1 unless Γ is the unit ideal.
    """
    return polar.f_colength


def lambda1(polar: PolarCurve, mu0_value: int) -> int:
    """The 1-dimensional Le number, as a colength difference.

    Both the full non-slice Jacobian scheme and the polar curve are cut by
    the slice hyperplane; their colength difference counts the transverse
    Milnor numbers along the critical locus, weighted by slice intersection.
    The first colength is mu0, since (d_1 f, ..., d_n f, z0) is
    (z0) + Jac(f|V(z0)), so the caller passes in the mu0 it already has.
    """
    return mu0_value - polar.slice_colength


@dataclass(frozen=True)
class LeInvariants:
    """Computed slice invariants; fields are None past the first failure."""

    mu0: int | None
    lambda0: int | None
    lambda1: int | None
    omega: int | None
    genericity_ok: bool
    warnings: tuple[str, ...]
    z0: tuple[Fraction, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "mu0": self.mu0,
            "lambda0": self.lambda0,
            "lambda1": self.lambda1,
            "omega": self.omega,
            "genericity_ok": self.genericity_ok,
            "warnings": list(self.warnings),
            "z0": None if self.z0 is None else [_frac_out(c) for c in self.z0],
        }

    def render_text(self) -> str:
        lines = ["slice invariants:"]
        for label, value in (("mu0", self.mu0), ("lambda0", self.lambda0),
                             ("lambda1", self.lambda1), ("omega", self.omega)):
            lines.append(f"  {label} = {'INFINITE/unknown' if value is None else value}")
        lines.append(f"  genericity_ok = {str(self.genericity_ok).lower()}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


def _frac_out(c: Fraction):
    return int(c) if c.denominator == 1 else str(c)


def compute_all(setup: SliceSetup, budget: Budget | None = None) -> LeInvariants:
    """Run the whole pipeline on one budget, a default ``Budget`` when none is
    given, downgrading genericity failures to a verdict."""
    result, _ = _pipeline(setup, budget if budget is not None else Budget())
    return result


@contextmanager
def _stage(name: str):
    """Prefix a ResourceLimitError raised inside the block with the stage name."""
    try:
        yield
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"stage {name}: {exc}") from exc


def _pipeline(setup: SliceSetup, budget: Budget | None):
    warnings = [GENERICITY_SCOPE_WARNING]
    z0 = setup.z0_coefficients
    m = None
    try:
        with _stage("mu0"):
            m = mu0(setup, budget)
        with _stage("polar"):
            polar = polar_ideal(setup, budget)
    except GenericityError as exc:
        warnings.append(str(exc))
        return LeInvariants(m, None, None, None, False, tuple(warnings), z0), None
    return LeInvariants(m, lambda0(polar), lambda1(polar, m), omega(polar), True,
                        tuple(warnings), z0), polar


@dataclass(frozen=True)
class AnalysisResult:
    """A finished analysis: invariants plus the transformed-coordinates data."""

    invariants: LeInvariants
    setup: SliceSetup
    polar: PolarCurve | None
    slice_names: tuple[str, ...]


def slice_with_form(f: MultiPoly, coefficients: Sequence,
                    names: Sequence[str] | None = None) -> tuple[SliceSetup, tuple[str, ...]]:
    """Change coordinates so the given linear form becomes variable 0.

    Returns the setup and the new variable names.  Unless the form already
    is the first coordinate, the slice variable is called ``w``, or the first
    of ``w0``, ``w1``, ... when a kept variable is called ``w``.  ``names``
    must be one distinct identifier per variable.
    """
    n = f.nvars
    coeffs = tuple(rational(c) for c in coefficients)
    if len(coeffs) != n:
        raise InputError("slice form needs one coefficient per variable")
    if not any(coeffs):
        raise InputError("slice form must be nonzero")
    if names is None:
        names = [f"x{i}" for i in range(n)]
    elif len(variable_index(names)) != n:
        raise InputError(f"need one variable name per variable: {len(names)} names for {n}")
    if coeffs == (1,) + (0,) * (n - 1):
        return SliceSetup(f, coeffs), tuple(names)
    pivot = next(i for i, c in enumerate(coeffs) if c)
    rest = [i for i in range(n) if i != pivot]
    # new coordinates: (w, untouched originals); old pivot variable solved from w
    matrix = [[Fraction(0)] * n for _ in range(n)]
    matrix[pivot][0] = 1 / coeffs[pivot]
    for col, i in enumerate(rest, start=1):
        matrix[i][col] = Fraction(1)
        matrix[pivot][col] = -coeffs[i] / coeffs[pivot]
    transformed = f.linear_change(matrix)
    kept = tuple(names[i] for i in rest)
    slice_name = next(name for name in ("w", *(f"w{k}" for k in range(n)))
                      if name not in kept)
    return SliceSetup(transformed, coeffs), (slice_name,) + kept


def moment_forms(nvars: int, start: int = 0):
    """The integer forms (1, t, ..., t^(nvars-1)) for t = start, start + 1, ..."""
    return (tuple(t ** i for i in range(nvars)) for t in count(start))


def analyze_poly(f: MultiPoly, z0: Sequence | None = None, seed: int = 0,
                 budget: Budget | None = None,
                 names: Sequence[str] | None = None) -> AnalysisResult:
    """Analyze f, choosing a slice form when none is given.

    Without ``z0`` the coordinate forms are tried, then the first 12 forms
    of ``moment_forms(f.nvars, seed)``, skipping repeats, and the first on
    which every stage finishes is kept; when all fail the last is reported.
    The coordinate forms come first because a non-generic set can hold the
    whole moment curve: every (1, t, t^2) is tangent to y^2 = 4xz.  With an
    explicit ``z0`` no search happens; a failing form is reported, not
    retried.  The seed must be an integer even then.  Every form and stage
    draws on the one ``budget``, a default ``Budget`` when none is given.
    """
    integer(seed, "seed")
    budget = budget if budget is not None else Budget()
    if z0 is not None:
        forms = [z0]
    else:
        units = (tuple(int(i == j) for j in range(f.nvars)) for i in range(f.nvars))
        forms = dict.fromkeys(chain(
            units, islice(moment_forms(f.nvars, seed), _MOMENT_FORMS_TRIED)))
    for form in forms:
        setup, new_names = slice_with_form(f, form, names)
        inv, polar = _pipeline(setup, budget)
        result = AnalysisResult(inv, setup, polar, new_names)
        if inv.genericity_ok:
            break
    return result
