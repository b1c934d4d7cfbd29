"""Monodromy constraints from the slice data of a one-dimensional critical locus.

Inputs are numeric component data (slice intersection numbers, transverse
Milnor numbers, optional local degrees or characteristic polynomials, optional
integer monodromy matrices).  Outputs are rigorous constraints on the middle
monodromy of the Milnor fiber: a divisibility bound on its characteristic
polynomial, rank bounds, non-splitting verdicts, and trace validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import CycloProduct, cyclo_product, homogeneous_char
from .errors import InputError, InvariantViolationError
from .intlinalg import (
    IntMatrix,
    as_matrix,
    block_cycle_matrix,
    fixed_space_rank,
    mat_pow,
)
from .invariants import LeInvariants, omega_law_holds

VERDICT_NON_SPLITTING = "NON_SPLITTING"
VERDICT_NOT_APPLICABLE = "NOT_APPLICABLE"
VERDICT_RANK_CASES = "RANK_ATTAINED_CASES"
VERDICT_RANK_BELOW = "RANK_BELOW_LAMBDA1"
VERDICT_COMPONENTS = "COMPONENT_SUMMARY"
VERDICT_ACAMPO = "ACAMPO_VIOLATION"
VERDICT_EXPONENTS = "EXPONENT_CEILINGS"


@dataclass(frozen=True)
class Finding:
    """A tagged, machine-readable report entry."""

    tag: str
    message: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"tag": self.tag, "message": self.message, "data": self.data}

    @classmethod
    def from_dict(cls, d: dict) -> "Finding":
        return cls(tag=d["tag"], message=d["message"], data=dict(d.get("data", {})))


@dataclass(frozen=True)
class ComponentData:
    """Slice data of one component of the critical locus.

    k is the intersection number of the component with the slice hyperplane,
    mu the transverse Milnor number at the k slice points, d an optional
    local homogeneous degree, char_h an optional characteristic polynomial of
    the local monodromy (degree mu), tau an optional integer matrix of the
    point-to-point monodromy, and fixed_rank the rank of the fixed space of
    the vertical monodromy.
    """

    k: int
    mu: int
    d: int | None = None
    char_h: CycloProduct | None = None
    tau: IntMatrix | None = None
    fixed_rank: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise InputError("component slice intersection number k must be >= 1")
        if self.mu < 1:
            raise InputError("transverse Milnor number mu must be >= 1")
        if self.d is not None and self.d < 2:
            raise InputError("local homogeneous degree d must be >= 2")
        if self.char_h is not None and self.char_h.degree() != self.mu:
            raise InputError(
                f"charH has degree {self.char_h.degree()} but mu = {self.mu}")
        if self.tau is not None:
            t = as_matrix(self.tau)
            if len(t) != self.mu or len(t[0]) != self.mu:
                raise InputError("tau must be a square matrix of size mu")
            object.__setattr__(self, "tau", t)
        if self.fixed_rank is not None and not 0 <= self.fixed_rank <= self.mu:
            raise InputError("fixed_rank must lie between 0 and mu")

    def to_dict(self) -> dict:
        out: dict = {"k": self.k, "mu": self.mu}
        if self.d is not None:
            out["d"] = self.d
        if self.char_h is not None:
            out["charH"] = str(self.char_h)
        if self.tau is not None:
            out["tau"] = [list(row) for row in self.tau]
        if self.fixed_rank is not None:
            out["fixedRank"] = self.fixed_rank
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ComponentData":
        if "k" not in d or "mu" not in d:
            raise InputError("every component needs both 'k' and 'mu'")
        return cls(
            k=_integer(d["k"], "k"),
            mu=_integer(d["mu"], "mu"),
            d=_optional_integer(d, "d"),
            char_h=_char_in(d.get("charH")),
            tau=(tuple(tuple(_integer(v, "tau") for v in row) for row in d["tau"])
                 if d.get("tau") is not None else None),
            fixed_rank=_optional_integer(d, "fixedRank"),
        )


def _integer(value, key: str) -> int:
    """A JSON integer; a float, bool or string is an InputError naming the key."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{key!r} must be an integer, not {value!r}")
    return value


def _optional_integer(d: dict, key: str) -> int | None:
    return None if d.get(key) is None else _integer(d[key], key)


def _char_in(value) -> CycloProduct | None:
    if value is None:
        return None
    if isinstance(value, str):
        return CycloProduct.parse(value)
    raise InputError(f"cannot read a characteristic polynomial from {value!r}")


@dataclass(frozen=True)
class SingularSetup:
    """Everything the constraint engine needs, independent of any polynomial."""

    n: int
    mu0: int
    char_h0: CycloProduct | None = None
    d0: int | None = None
    components: tuple[ComponentData, ...] = ()
    lambda0: int | None = None
    omega: int | None = None
    # derived by validation: the effective characteristic polynomials, their
    # product over the components (None when one is unknown) and the ranks
    char0: CycloProduct | None = field(init=False, repr=False, compare=False)
    component_chars: tuple[CycloProduct | None, ...] = field(
        init=False, repr=False, compare=False)
    component_product: CycloProduct | None = field(init=False, repr=False, compare=False)
    component_ranks: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise InputError("ambient dimension n must be >= 1")
        if self.mu0 < 0:
            raise InputError("mu0 must be nonnegative")
        object.__setattr__(self, "components", tuple(self.components))
        char0 = self.char_h0
        if self.d0 is not None:
            hc0 = homogeneous_char(self.n, self.d0)
            if self.char_h0 is not None and self.char_h0 != hc0:
                raise InputError("explicit charH0 disagrees with homogeneous degree d0")
            if hc0.degree() != self.mu0:
                raise InputError(
                    f"mu0 = {self.mu0} but a homogeneous slice of degree {self.d0} "
                    f"has Milnor number {hc0.degree()}")
            char0 = hc0
        elif self.char_h0 is not None and self.char_h0.degree() != self.mu0:
            raise InputError(
                f"charH0 has degree {self.char_h0.degree()} but mu0 = {self.mu0}")
        chars, ranks = [], []
        for i, comp in enumerate(self.components):
            char, rank = comp.char_h, comp.fixed_rank
            if comp.d is not None:
                hc = homogeneous_char(self.n, comp.d)
                if comp.char_h is not None and comp.char_h != hc:
                    raise InputError(
                        f"component {i}: explicit charH disagrees with degree d = {comp.d}")
                if hc.degree() != comp.mu:
                    raise InputError(
                        f"component {i}: mu = {comp.mu} but degree {comp.d} forces "
                        f"transverse Milnor number {hc.degree()}")
                char = hc
            if comp.tau is not None:
                derived = cyclic_kernel_rank(comp.tau, comp.k)
                if comp.fixed_rank is not None and comp.fixed_rank != derived:
                    raise InputError(
                        f"component {i}: fixedRank = {comp.fixed_rank} disagrees with "
                        f"the rank {derived} derived from tau")
                rank = derived
            chars.append(char)
            ranks.append(rank)
        if self.lambda0 is not None and self.omega is not None:
            if not omega_law_holds(self.omega, self.lambda0):
                raise InputError(
                    "omega >= lambda0 with equality only at zero fails for the "
                    "supplied lambda0/omega")
        object.__setattr__(self, "char0", char0)
        object.__setattr__(self, "component_chars", tuple(chars))
        object.__setattr__(self, "component_product",
                           None if None in chars else cyclo_product(chars))
        object.__setattr__(self, "component_ranks", tuple(ranks))

    def to_dict(self) -> dict:
        out: dict = {"n": self.n, "mu0": self.mu0}
        if self.d0 is not None:
            out["d0"] = self.d0
        if self.char_h0 is not None:
            out["charH0"] = str(self.char_h0)
        out["components"] = [c.to_dict() for c in self.components]
        if self.lambda0 is not None:
            out["lambda0"] = self.lambda0
        if self.omega is not None:
            out["omega"] = self.omega
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SingularSetup":
        try:
            n = _integer(d["n"], "n")
            mu0 = _integer(d["mu0"], "mu0")
        except KeyError as missing:
            raise InputError(f"setup is missing the required key {missing}")
        return cls(
            n=n,
            mu0=mu0,
            char_h0=_char_in(d.get("charH0")),
            d0=_optional_integer(d, "d0"),
            components=tuple(ComponentData.from_dict(c) for c in d.get("components", [])),
            lambda0=_optional_integer(d, "lambda0"),
            omega=_optional_integer(d, "omega"),
        )


def lambda1_from_components(setup: SingularSetup) -> int:
    """lambda1 as the slice-weighted sum of transverse Milnor numbers."""
    return sum(c.k * c.mu for c in setup.components)


def divisibility_bound(setup: SingularSetup) -> CycloProduct | None:
    """gcd of the slice characteristic polynomial with the component product.

    The product takes one characteristic polynomial per component.  Returns
    None (unknown) when any needed characteristic polynomial is unavailable.
    """
    if setup.char0 is None or setup.component_product is None:
        return None
    return setup.char0.gcd(setup.component_product)


def rank_bound(setup: SingularSetup) -> int:
    """Best available upper bound for the rank of the middle cohomology."""
    candidates = [setup.mu0,
                  lambda1_from_components(setup),
                  sum(c.mu for c in setup.components)]
    ranks = setup.component_ranks
    if ranks and None not in ranks:
        candidates.append(sum(ranks))
    return min(candidates)


def cyclic_kernel_rank(tau, k: int) -> int:
    """Rank of the fixed space of the cyclic block action built from tau.

    The block-cycle matrix on k copies has the same fixed-space rank as
    tau^k; both sides are computed independently through Smith normal form
    and must agree, otherwise an invariant violation is raised.
    """
    T = as_matrix(tau)
    rank_cyclic = fixed_space_rank(block_cycle_matrix(T, k))
    rank_power = fixed_space_rank(mat_pow(T, k))
    if rank_cyclic != rank_power:
        raise InvariantViolationError(
            f"cyclic kernel rank {rank_cyclic} != power kernel rank {rank_power}")
    return rank_cyclic


def non_splitting_verdict(mu0: int, lambda1: int) -> Finding:
    """Non-splitting verdict: mu0 == lambda1 forces a single smooth component.

    In that case the slice hyperplane meets the critical locus in exactly one
    point, the polar numbers vanish, the top reduced cohomology of the Milnor
    fiber is zero and the middle one is free of rank mu0.
    """
    if mu0 < 0 or lambda1 < 0:
        raise InputError("mu0 and lambda1 must be nonnegative")
    if mu0 < lambda1:
        raise InputError(
            f"mu0 = {mu0} < lambda1 = {lambda1} is impossible: inconsistent input")
    if mu0 == lambda1:
        data = {
            "s": 1,
            "omega": 0,
            "lambda0": 0,
            "h_top_rank": 0,
            "h_middle_rank": mu0,
        }
        message = ("mu0 == lambda1: the critical locus has a single smooth "
                   "component met transversely by the slice; omega = lambda0 = 0, "
                   "the top reduced cohomology of the Milnor fiber vanishes and "
                   f"the middle one is Z^{mu0}")
        if mu0 == 0:
            data["degenerate"] = True
            message += " (degenerate: the sliced function is smooth)"
        return Finding(VERDICT_NON_SPLITTING, message, data)
    return Finding(VERDICT_NOT_APPLICABLE,
                   f"mu0 = {mu0} > lambda1 = {lambda1}: non-splitting does not apply",
                   {"mu0": mu0, "lambda1": lambda1})


def rank_attained_cases(mu0: int, lambda1: int) -> Finding:
    """Case analysis under the hypothesis that the middle rank attains lambda1.

    Then every component is smooth and transverse (k = 1) and the number s of
    slice points obeys s - 1 <= mu0 - lambda1, with s = 1 only possible when
    mu0 == lambda1.  Attaining the upper bound forces mu0 - lambda1 slice
    monodromy eigenvalues in the opposite parity class (-1)^(n+1).
    """
    if mu0 < lambda1:
        raise InputError(
            f"mu0 = {mu0} < lambda1 = {lambda1} is impossible: inconsistent input")
    diff = mu0 - lambda1
    feasible = [1] if diff == 0 else list(range(2, diff + 2))
    message = ("if the middle cohomology rank equals lambda1, every component is "
               "smooth and transverse (k = 1) and the number of slice points s "
               f"lies in {feasible}")
    if diff > 0:
        plural = "eigenvalue" if diff == 1 else "eigenvalues"
        message += ("; s attaining the bound forces "
                    f"{diff} slice-monodromy {plural} equal to (-1)^(n+1)")
    return Finding(VERDICT_RANK_CASES, message, {
        "mu0_minus_lambda1": diff,
        "s_feasible": feasible,
        "k_all_one_if_rank_attained": True,
    })


def acampo_validate(setup: SingularSetup) -> list[Finding]:
    """Trace check: every monodromy characteristic polynomial has trace (-1)^n."""
    expected = (-1) ** setup.n
    violations: list[Finding] = []
    char0 = setup.char0
    if char0 is not None and char0.trace() != expected:
        violations.append(Finding(
            VERDICT_ACAMPO,
            f"charH0 = {char0} has trace {char0.trace()}, expected {expected}",
            {"which": "charH0", "trace": char0.trace(), "expected": expected}))
    for i, c in enumerate(setup.component_chars):
        if c is not None and c.trace() != expected:
            violations.append(Finding(
                VERDICT_ACAMPO,
                f"component {i} charH = {c} has trace {c.trace()}, expected {expected}",
                {"which": f"component {i}", "trace": c.trace(), "expected": expected}))
    return violations


@dataclass(frozen=True)
class ConstraintReport:
    """Aggregate output of the constraint engine."""

    lambda1: int
    divisor_bound: CycloProduct | None
    rank_bound: int
    s_bounds: tuple[int, ...] | None
    verdicts: tuple[Finding, ...]
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "divisor_bound": None if self.divisor_bound is None else str(self.divisor_bound),
            "rank_bound": self.rank_bound,
            "s_bounds": None if self.s_bounds is None else list(self.s_bounds),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintReport":
        bound = d.get("divisor_bound")
        s_bounds = d.get("s_bounds")
        return cls(
            lambda1=int(d["lambda1"]),
            divisor_bound=None if bound is None else CycloProduct.parse(bound),
            rank_bound=int(d["rank_bound"]),
            s_bounds=None if s_bounds is None else tuple(int(s) for s in s_bounds),
            verdicts=tuple(Finding.from_dict(v) for v in d.get("verdicts", [])),
            warnings=tuple(d.get("warnings", ())),
        )

    def render_text(self) -> str:
        lines = ["monodromy constraint report:"]
        lines.append(f"  lambda1 = {self.lambda1}")
        lines.append(f"  rank bound on middle cohomology = {self.rank_bound}")
        if self.divisor_bound is None:
            lines.append("  divisor bound = UNKNOWN")
        else:
            lines.append(f"  divisor bound = {self.divisor_bound} "
                         f"(degree {self.divisor_bound.degree()})")
        if self.s_bounds is not None:
            lines.append(f"  feasible slice-point counts s = {list(self.s_bounds)}")
        for v in self.verdicts:
            lines.append(f"  [{v.tag}] {v.message}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


def full_report(setup: SingularSetup, le: LeInvariants | None = None) -> ConstraintReport:
    """Assemble the divisor bound, rank bounds and verdicts for a setup.

    When slice invariants are supplied they must be consistent with the
    component data; lambda1 may come from either source.
    """
    warnings: list[str] = []
    verdicts: list[Finding] = []
    comp_l1 = lambda1_from_components(setup) if setup.components else None
    le_l1 = le.lambda1 if le is not None else None
    if comp_l1 is not None and le_l1 is not None and comp_l1 != le_l1:
        raise InputError(
            f"component data gives lambda1 = {comp_l1} but the computed "
            f"invariants give lambda1 = {le_l1}")
    if le is not None:
        if le.mu0 is not None and le.mu0 != setup.mu0:
            raise InputError(
                f"setup has mu0 = {setup.mu0} but the computed invariants give {le.mu0}")
        if setup.lambda0 is not None and le.lambda0 is not None and setup.lambda0 != le.lambda0:
            raise InputError("supplied lambda0 disagrees with the computed value")
        if setup.omega is not None and le.omega is not None and setup.omega != le.omega:
            raise InputError("supplied omega disagrees with the computed value")
        if le.omega is not None and le.lambda0 is not None:
            if not omega_law_holds(le.omega, le.lambda0):
                raise InvariantViolationError(
                    "computed invariants violate omega >= lambda0 with equality only at zero")
    lam1 = comp_l1 if comp_l1 is not None else le_l1
    if lam1 is None:
        lam1 = 0
        warnings.append("no components supplied: critical-locus data missing, "
                        "lambda1 reported as 0")
    divisor = divisibility_bound(setup)
    if divisor is None:
        warnings.append("divisor bound unknown: some characteristic polynomial "
                        "is unavailable")
    if setup.components or le_l1 is None:
        rank = rank_bound(setup)
    else:
        # no component data: only mu0 and the computed lambda1 bound the rank
        rank = min(setup.mu0, le_l1)
    s_bounds: tuple[int, ...] | None = None
    if comp_l1 is not None or le_l1 is not None:
        verdict1 = non_splitting_verdict(setup.mu0, lam1)
        verdicts.append(verdict1)
        if verdict1.data.get("degenerate"):
            warnings.append("mu0 = lambda1 = 0: the sliced function is smooth")
        verdict2 = rank_attained_cases(setup.mu0, lam1)
        verdicts.append(verdict2)
        s_bounds = tuple(verdict2.data["s_feasible"])
        if setup.components:
            s_actual = sum(c.k for c in setup.components)
            verdicts.append(Finding(
                VERDICT_COMPONENTS,
                f"{len(setup.components)} component(s), s = {s_actual}, "
                f"sum of transverse Milnor numbers = {sum(c.mu for c in setup.components)}",
                {"count": len(setup.components), "s": s_actual,
                 "sum_mu": sum(c.mu for c in setup.components)}))
            if verdict1.tag == VERDICT_NON_SPLITTING and (
                    len(setup.components) != 1 or s_actual != 1):
                warnings.append("non-splitting verdict contradicts the supplied "
                                "component data; the input is inconsistent")
            if setup.mu0 > lam1 and (s_actual not in s_bounds
                                     or any(c.k > 1 for c in setup.components)):
                verdicts.append(Finding(
                    VERDICT_RANK_BELOW,
                    "the component data is incompatible with a middle cohomology "
                    f"of rank lambda1 = {lam1}; the rank is strictly smaller",
                    {"lambda1": lam1, "s": s_actual}))
    verdicts.extend(acampo_validate(setup))
    if le is not None:
        warnings.extend(w for w in le.warnings if w not in warnings)
    report = ConstraintReport(
        lambda1=lam1,
        divisor_bound=divisor,
        rank_bound=rank,
        s_bounds=s_bounds,
        verdicts=tuple(verdicts),
        warnings=tuple(warnings),
    )
    if divisor is not None and not (divisor.divides(setup.char0)
                                    and divisor.divides(setup.component_product)):
        raise InvariantViolationError("divisor bound fails to divide its inputs")
    return report
