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
from .errors import InputError
from .intlinalg import IntMatrix, as_matrix, block_cycle_matrix, fixed_rank
from .polynomials import integer

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
        if integer(self.k, "k") < 1:
            raise InputError("component slice intersection number k must be >= 1")
        if integer(self.mu, "mu") < 1:
            raise InputError("transverse Milnor number mu must be >= 1")
        if self.d is not None and integer(self.d, "d") < 2:
            raise InputError("local homogeneous degree d must be >= 2")
        if self.char_h is not None and self.char_h.degree() != self.mu:
            raise InputError(
                f"charH has degree {self.char_h.degree()} but mu = {self.mu}")
        if self.tau is not None:
            t = as_matrix(self.tau, "tau")
            if len(t) != self.mu or len(t[0]) != self.mu:
                raise InputError("tau must be a square matrix of size mu")
            object.__setattr__(self, "tau", t)
        if self.fixed_rank is not None and not (
                0 <= integer(self.fixed_rank, "fixedRank") <= self.mu):
            raise InputError("fixed_rank must lie between 0 and mu")

    def to_dict(self) -> dict:
        tau = None if self.tau is None else [list(row) for row in self.tau]
        return _json_fields(k=self.k, mu=self.mu, d=self.d, charH=self.char_h, tau=tau,
                            fixedRank=self.fixed_rank)

    @classmethod
    def from_dict(cls, d: dict) -> "ComponentData":
        if "k" not in d or "mu" not in d:
            raise InputError("every component needs both 'k' and 'mu'")
        return cls(k=d["k"], mu=d["mu"], d=d.get("d"), char_h=_char_in(d.get("charH")),
                   tau=d.get("tau"), fixed_rank=d.get("fixedRank"))


def _json_fields(**fields) -> dict:
    """The fields that are set, in order, with a ``CycloProduct`` written as text."""
    return {key: str(value) if isinstance(value, CycloProduct) else value
            for key, value in fields.items() if value is not None}


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
    lambda1: int | None = None
    # derived by validation: the slice's effective characteristic polynomial,
    # the product of the components' (None when one is unknown) and their ranks
    char0: CycloProduct | None = field(init=False, repr=False, compare=False)
    component_product: CycloProduct | None = field(init=False, repr=False, compare=False)
    component_ranks: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if integer(self.n, "n") < 1:
            raise InputError("ambient dimension n must be >= 1")
        if integer(self.mu0, "mu0") < 0:
            raise InputError("mu0 must be nonnegative")
        if self.d0 is not None:
            integer(self.d0, "d0")
        for key, value in (("lambda0", self.lambda0), ("omega", self.omega),
                           ("lambda1", self.lambda1)):
            if value is not None and integer(value, key) < 0:
                raise InputError(f"{key} must be nonnegative")
        object.__setattr__(self, "components", tuple(self.components))
        char0 = _effective_char(self.n, self.d0, self.char_h0, self.mu0, where="", suffix="0")
        chars, ranks = [], []
        # components repeat a few (d, charH, mu): each is checked once, by
        # the first component that carries it, so an error names that one
        by_key: dict[tuple, CycloProduct | None] = {}
        for i, comp in enumerate(self.components):
            key = (comp.d, comp.char_h, comp.mu)
            if key not in by_key:
                by_key[key] = _effective_char(self.n, comp.d, comp.char_h, comp.mu,
                                              where=f"component {i}: ", suffix="")
            chars.append(by_key[key])
            rank = comp.fixed_rank
            if comp.tau is not None:
                derived = cyclic_kernel_rank(comp.tau, comp.k)
                if comp.fixed_rank is not None and comp.fixed_rank != derived:
                    raise InputError(
                        f"component {i}: fixedRank = {comp.fixed_rank} disagrees with "
                        f"the rank {derived} derived from tau")
                rank = derived
            ranks.append(rank)
        if self.lambda0 is not None and self.omega is not None:
            if not (self.omega > self.lambda0 or self.omega == self.lambda0 == 0):
                raise InputError(
                    "omega >= lambda0 with equality only at zero fails for the "
                    "supplied lambda0/omega")
        if self.lambda1 is not None and self.components:
            from_components = lambda1_from_components(self)
            if self.lambda1 != from_components:
                raise InputError(
                    f"lambda1 = {self.lambda1} disagrees with the components' "
                    f"sum of k*mu = {from_components}")
        object.__setattr__(self, "char0", char0)
        object.__setattr__(self, "component_product",
                           None if None in chars else cyclo_product(chars))
        object.__setattr__(self, "component_ranks", tuple(ranks))

    def to_dict(self) -> dict:
        return _json_fields(n=self.n, mu0=self.mu0, d0=self.d0, charH0=self.char_h0,
                            components=[c.to_dict() for c in self.components],
                            lambda0=self.lambda0, omega=self.omega, lambda1=self.lambda1)

    @classmethod
    def from_dict(cls, d: dict) -> "SingularSetup":
        for key in ("n", "mu0"):
            if key not in d:
                raise InputError(f"setup is missing the required key {key!r}")
        components = d.get("components", [])
        if not isinstance(components, (list, tuple)) or not all(
                isinstance(c, dict) for c in components):
            raise InputError("'components' must be a list of objects")
        return cls(
            n=d["n"],
            mu0=d["mu0"],
            char_h0=_char_in(d.get("charH0")),
            d0=d.get("d0"),
            components=tuple(ComponentData.from_dict(c) for c in components),
            lambda0=d.get("lambda0"),
            omega=d.get("omega"),
            lambda1=d.get("lambda1"),
        )


def _effective_char(n: int, d: int | None, char_h: CycloProduct | None, mu: int,
                    where: str, suffix: str) -> CycloProduct | None:
    """The characteristic polynomial that d or charH fixes, checked against mu.

    Used for the slice (key suffix "0") and for each component (messages
    prefixed by ``where``); None when neither d nor charH is given.
    """
    if d is None:
        if char_h is not None and char_h.degree() != mu:
            raise InputError(
                f"{where}charH{suffix} has degree {char_h.degree()} but mu{suffix} = {mu}")
        return char_h
    hc = homogeneous_char(n, d)
    if char_h is not None and char_h != hc:
        raise InputError(f"{where}explicit charH{suffix} disagrees with degree d{suffix} = {d}")
    if (d - 1) ** n != mu:
        raise InputError(f"{where}mu{suffix} = {mu} but degree d{suffix} = {d} forces "
                         f"Milnor number {(d - 1) ** n}")
    return hc


def lambda1_from_components(setup: SingularSetup) -> int:
    """lambda1 as the slice-weighted sum of transverse Milnor numbers."""
    return sum(c.k * c.mu for c in setup.components)


def _lambda1(setup: SingularSetup) -> int | None:
    """lambda1 from the components when there are any, else the supplied one."""
    return lambda1_from_components(setup) if setup.components else setup.lambda1


def divisibility_bound(setup: SingularSetup) -> CycloProduct | None:
    """gcd of the slice characteristic polynomial with the component product.

    The product takes one characteristic polynomial per component.  Returns
    None (unknown) when any needed characteristic polynomial is unavailable.
    """
    if setup.char0 is None or setup.component_product is None:
        return None
    return setup.char0.gcd(setup.component_product)


def rank_bound(setup: SingularSetup) -> int:
    """Best available upper bound for the rank of the middle cohomology.

    The minimum of mu0, lambda1 (0 when unknown), and, given components, the
    sum of their transverse Milnor numbers and of their ranks when all are known.
    """
    candidates = [setup.mu0, _lambda1(setup) or 0]
    if setup.components:
        candidates.append(sum(c.mu for c in setup.components))
        if None not in setup.component_ranks:
            candidates.append(sum(setup.component_ranks))
    return min(candidates)


def cyclic_kernel_rank(tau, k: int) -> int:
    """Rank of the fixed space of the cyclic block action built from tau.

    One elimination, of id minus the k-fold block cycle of tau, which
    ``block_cycle_matrix`` builds as it reads tau, once; the block cycle is
    not read again.
    That rank equals the one of tau^k (the cyclic kernel lemma, which the
    tests check against tau^k), but the block cycle has no entry larger than
    tau's and its size is capped before it is built, where the entries of
    tau^k grow with k unbounded.
    """
    return fixed_rank(block_cycle_matrix(tau, k))


def _mu0_minus_lambda1(mu0: int, lambda1: int) -> int:
    """mu0 - lambda1 for two counts; the law mu0 >= lambda1 failing is inconsistent input."""
    if min(integer(mu0, "mu0"), integer(lambda1, "lambda1")) < 0:
        raise InputError("mu0 and lambda1 must be nonnegative")
    if mu0 < lambda1:
        raise InputError(
            f"mu0 = {mu0} < lambda1 = {lambda1} is impossible: inconsistent input")
    return mu0 - lambda1


def non_splitting_verdict(mu0: int, lambda1: int) -> Finding:
    """Non-splitting verdict: mu0 == lambda1 forces a single smooth component.

    In that case the slice hyperplane meets the critical locus in exactly one
    point, the polar numbers vanish, the top reduced cohomology of the Milnor
    fiber is zero and the middle one is free of rank mu0.
    """
    if _mu0_minus_lambda1(mu0, lambda1) == 0:
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
    diff = _mu0_minus_lambda1(mu0, lambda1)
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
    """Trace check: every supplied characteristic polynomial has trace (-1)^n.

    Only charH0 and the components' charH are read: one that a degree d
    fixes has trace a0 - b0 = (-1)^n by construction.
    """
    expected = (-1) ** setup.n
    # (which, name in the message, characteristic polynomial)
    labelled = [("charH0", "charH0", setup.char_h0)] + [
        (f"component {i}", f"component {i} charH", comp.char_h)
        for i, comp in enumerate(setup.components)]
    return [Finding(VERDICT_ACAMPO, f"{name} = {c} has trace {c.trace()}, expected {expected}",
                    {"which": which, "trace": c.trace(), "expected": expected})
            for which, name, c in labelled if c is not None and c.trace() != expected]


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
            lambda1=integer(d["lambda1"], "lambda1"),
            divisor_bound=None if bound is None else CycloProduct.parse(bound),
            rank_bound=integer(d["rank_bound"], "rank_bound"),
            s_bounds=None if s_bounds is None else tuple(integer(s, "s_bounds") for s in s_bounds),
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


def full_report(setup: SingularSetup) -> ConstraintReport:
    """Assemble the divisor bound, rank bounds and verdicts for a setup.

    lambda1 is the components' sum of k*mu when there are components and the
    setup's own lambda1 otherwise; with neither it is reported as 0.
    """
    warnings: list[str] = []
    verdicts: list[Finding] = []
    lam1 = _lambda1(setup)
    if lam1 is None:
        warnings.append("no components supplied: critical-locus data missing, "
                        "lambda1 reported as 0")
    divisor = divisibility_bound(setup)
    if divisor is None:
        warnings.append("divisor bound unknown: some characteristic polynomial "
                        "is unavailable")
    s_bounds: tuple[int, ...] | None = None
    if lam1 is not None:
        verdict1 = non_splitting_verdict(setup.mu0, lam1)
        verdicts.append(verdict1)
        if verdict1.data.get("degenerate"):
            warnings.append("mu0 = lambda1 = 0: the sliced function is smooth")
        verdict2 = rank_attained_cases(setup.mu0, lam1)
        verdicts.append(verdict2)
        s_bounds = tuple(verdict2.data["s_feasible"])
        if setup.components:
            s_actual = sum(c.k for c in setup.components)
            sum_mu = sum(c.mu for c in setup.components)
            verdicts.append(Finding(
                VERDICT_COMPONENTS,
                f"{len(setup.components)} component(s), s = {s_actual}, "
                f"sum of transverse Milnor numbers = {sum_mu}",
                {"count": len(setup.components), "s": s_actual, "sum_mu": sum_mu}))
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
    return ConstraintReport(
        lambda1=lam1 or 0,
        divisor_bound=divisor,
        rank_bound=rank_bound(setup),
        s_bounds=s_bounds,
        verdicts=tuple(verdicts),
        warnings=tuple(warnings),
    )
