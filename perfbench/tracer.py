"""Layer tracing from outside the package.

While a ``Tracer`` is installed, the public functions at each layer boundary
are replaced by wrappers in every package module that holds them (a function
imported by name into another module is patched there too), so each call
passes through exactly one wrapper.  Timed functions record spans
``(name, parent span, job, start, end)`` in memory; hot functions only bump a
counter.  A span's self time is its duration minus the durations of its
direct children, which nest inside it because the calls are synchronous.

Uninstalling restores every original object, so untraced passes run the
package unchanged.
"""

from __future__ import annotations

import io
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stdout

import lenumbers
from lenumbers import (arrangements, cli, constraints, cyclo, intlinalg, invariants, localring,
                       polynomials)

PACKAGE_MODULES = (lenumbers, polynomials, localring, invariants, cyclo, intlinalg,
                   constraints, arrangements, cli)

# module-level functions recorded as spans: (module, attribute) -> span name
SPANNED = {
    (localring, "standard_basis"): "localring.standard_basis",
    (localring, "colength"): "localring.colength",
    (localring, "mora_reduce"): "localring.mora_reduce",
    (localring, "saturate"): "localring.saturate",
    (localring, "ideal_quotient"): "localring.ideal_quotient",
    (invariants, "mu0"): "invariants.mu0",
    (invariants, "polar_ideal"): "invariants.polar",
    (invariants, "lambda0"): "invariants.lambda0",
    (invariants, "omega"): "invariants.omega",
    (invariants, "lambda1"): "invariants.lambda1",
    (arrangements, "multiple_points"): "arrangements.multiple_points",
    (arrangements, "pick_slice_form"): "arrangements.pick_slice_form",
    (intlinalg, "smith_normal_form"): "intlinalg.smith_normal_form",
    (constraints, "full_report"): "constraints.full_report",
    (constraints, "cyclic_kernel_rank"): "constraints.cyclic_kernel_rank",
}
# module-level functions whose calls are only counted
COUNTED = {
    (localring, "leading"): "localring.leading",
    (cyclo, "homogeneous_char"): "cyclo.homogeneous_char",
    (invariants, "slice_with_form"): "invariants.slice_with_form",
}
ARITH_METHODS = ("__add__", "__sub__", "__mul__", "term_mul")

# Per-layer metrics: name -> (unit, better, what it should move).  The last
# field names the end-to-end metric and workloads a change to the layer is
# expected to move; ``--trace 1`` prints it.
METRICS = {
    "localring.standard_basis.calls": ("count", "lower", "sweep_s on arr_polar, iomdine"),
    "localring.standard_basis.self_s": ("s", "lower", "sweep_s on arr_polar, iomdine"),
    "localring.spairs": ("count", "lower", "sweep_s on arr_polar, iomdine"),
    "localring.budget_monomials": ("count", "lower", "sweep_s on arr_polar, iomdine"),
    "localring.useful_pair_frac": ("ratio", "higher", "sweep_s on arr_polar (pair criteria)"),
    "localring.basis_len_max": ("count", "lower", "slowest_job_s, ok_frac on iomdine"),
    "localring.coeff_bits_max": ("bit", "lower", "slowest_job_s, ok_frac on iomdine"),
    "localring.mora_reduce.calls": ("count", "lower", "sweep_s on arr_polar, iomdine"),
    "localring.mora_reduce.s": ("s", "lower", "sweep_s on arr_polar, iomdine"),
    "localring.leading.calls": ("count", "lower", "sweep_s on arr_polar, iomdine"),
    "localring.saturate.s": ("s", "lower", "sweep_s on arr_polar"),
    "localring.saturate.rounds": ("count", "lower", "sweep_s on arr_polar"),
    "localring.ideal_quotient.s": ("s", "lower", "sweep_s on arr_polar"),
    "localring.colength.calls": ("count", "lower", "sweep_s on iomdine"),
    "localring.colength.self_s": ("s", "lower", "sweep_s on iomdine"),
    "invariants.mu0_s": ("s", "lower", "sweep_s on arr_polar"),
    "invariants.polar_s": ("s", "lower", "sweep_s on arr_polar (most of it)"),
    "invariants.lambda0_s": ("s", "lower", "sweep_s on arr_polar"),
    "invariants.omega_s": ("s", "lower", "sweep_s on arr_polar"),
    "invariants.lambda1_s": ("s", "lower", "sweep_s on arr_polar"),
    "invariants.slice_candidates": ("count", "lower", "sweep_s on cli_sweep"),
    "invariants.slice_rejected": ("count", "lower", "sweep_s on cli_sweep"),
    "polynomials.arith_calls": ("count", "lower", "sweep_s on arr_polar, iomdine"),
    "polynomials.linear_change_s": ("s", "lower", "sweep_s on cli_sweep"),
    "arrangements.multiple_points.calls": ("count", "lower", "slowest_job_s on cli_sweep"),
    "arrangements.multiple_points_s": ("s", "lower", "slowest_job_s on cli_sweep"),
    "arrangements.pick_slice_form_s": ("s", "lower", "slowest_job_s on cli_sweep"),
    "intlinalg.smith_normal_form.calls": ("count", "lower", "sweep_s on cli_sweep"),
    "intlinalg.smith_normal_form_s": ("s", "lower", "sweep_s on cli_sweep"),
    "constraints.full_report_s": ("s", "lower", "sweep_s on cli_sweep"),
    "constraints.cyclic_kernel_rank_s": ("s", "lower", "sweep_s on cli_sweep"),
    "cyclo.homogeneous_char.calls": ("count", "lower", "sweep_s on cli_sweep"),
    "cli.main.self_s": ("s", "lower", "sweep_s on cli_sweep"),
    "cli.output_bytes": ("B", "lower", "sweep_s on cli_sweep"),
    "trace.overhead_frac": ("ratio", "lower", "none"),
}
# Counters that must repeat exactly when the same seed is traced twice.
DETERMINISTIC = tuple(name for name in METRICS if name.endswith(".calls")) + (
    "localring.spairs", "localring.budget_monomials", "invariants.slice_candidates",
    "invariants.slice_rejected", "localring.coeff_bits_max", "localring.basis_len_max",
    "localring.saturate.rounds", "polynomials.arith_calls", "cli.output_bytes")


def _coeff_bits(basis) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for g in basis for c in g.terms.values()), default=0)


class Tracer:
    """Spans and counters for the jobs run while it is installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, parent, job, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job = -1
        self._job_start = (0, Counter())
        self._saved: list[tuple[object, str, object]] = []

    # -- job bookkeeping --------------------------------------------------

    def begin_job(self, job: int) -> None:
        self._job = job
        self._job_start = (len(self.spans), self.counts.copy())

    def drop_job(self) -> None:
        """Forget the spans and counts of a job that did not finish.

        A job stopped at its deadline got as far as the machine's speed
        allowed, so its counts would make the counters nondeterministic.
        """
        first_span, counts = self._job_start
        del self.spans[first_span:]
        self.counts.clear()
        self.counts.update(counts)
        self._stack.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, parent, self._job, start, clock())
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_standard_basis(self, args, sb) -> None:
        given = sum(1 for g in args[0].generators if not g.is_zero)
        self.counts["localring.new_basis_elements"] += len(sb.basis) - given
        self._raise_to("localring.basis_len_max", len(sb.basis))
        self._raise_to("localring.coeff_bits_max", _coeff_bits(sb.basis))

    def _raise_to(self, name, value) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    def _analyze_poly(self, fn):
        def wrapper(*args, **kwargs):
            before = self.counts["invariants.slice_with_form"]
            result = fn(*args, **kwargs)
            tried = self.counts["invariants.slice_with_form"] - before
            self.counts["invariants.slice_rejected"] += tried - result.invariants.genericity_ok
            return result

        return wrapper

    def _cli_main(self, fn):
        def wrapper(argv=None):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = fn(argv)
            text = buf.getvalue()
            self.counts["cli.output_bytes"] += len(text.encode())
            sys.stdout.write(text)
            return code

        return self._span(wrapper, "cli.main")

    def _tick_monomials(self, fn):
        def wrapper(budget, count):
            self.counts["localring.budget_monomials"] += count
            return fn(budget, count)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in PACKAGE_MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for (module, attr), name in SPANNED.items():
            fn = getattr(module, attr)
            after = self._after_standard_basis if attr == "standard_basis" else None
            self._patch_everywhere(fn, self._span(fn, name, after))
        for (module, attr), name in COUNTED.items():
            fn = getattr(module, attr)
            self._patch_everywhere(fn, self._count(fn, name))
        self._patch_everywhere(invariants.analyze_poly, self._analyze_poly(invariants.analyze_poly))
        self._patch_everywhere(cli.main, self._cli_main(cli.main))
        MultiPoly = polynomials.MultiPoly
        for attr in ARITH_METHODS:
            self._patch_attr(MultiPoly, attr, self._count(getattr(MultiPoly, attr),
                                                          "polynomials.arith_calls"))
        self._patch_attr(MultiPoly, "linear_change",
                         self._span(MultiPoly.linear_change, "polynomials.linear_change"))
        Budget = localring.Budget
        self._patch_attr(Budget, "tick_pair", self._count(Budget.tick_pair, "localring.spairs"))
        self._patch_attr(Budget, "tick_monomials", self._tick_monomials(Budget.tick_monomials))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric, from the spans and counts of the finished jobs."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        names = [s[0] for s in self.spans]
        for name, parent, _job, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, parent, _job, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[sid]
            calls[name] += 1
            caller = names[parent] if parent >= 0 else None
            if name == "localring.ideal_quotient" and caller == "localring.saturate":
                calls["localring.saturate.rounds"] += 1
        c = self.counts
        spairs = c["localring.spairs"]
        values = {
            "localring.standard_basis.calls": calls["localring.standard_basis"],
            "localring.standard_basis.self_s": self_time["localring.standard_basis"],
            "localring.spairs": spairs,
            "localring.budget_monomials": c["localring.budget_monomials"],
            "localring.useful_pair_frac": c["localring.new_basis_elements"] / max(spairs, 1),
            "localring.basis_len_max": c["localring.basis_len_max"],
            "localring.coeff_bits_max": c["localring.coeff_bits_max"],
            "localring.mora_reduce.calls": calls["localring.mora_reduce"],
            "localring.mora_reduce.s": total["localring.mora_reduce"],
            "localring.leading.calls": c["localring.leading"],
            "localring.saturate.s": total["localring.saturate"],
            "localring.saturate.rounds": calls["localring.saturate.rounds"],
            "localring.ideal_quotient.s": total["localring.ideal_quotient"],
            "localring.colength.calls": calls["localring.colength"],
            "localring.colength.self_s": self_time["localring.colength"],
            "invariants.mu0_s": total["invariants.mu0"],
            "invariants.polar_s": total["invariants.polar"],
            "invariants.lambda0_s": total["invariants.lambda0"],
            "invariants.omega_s": total["invariants.omega"],
            "invariants.lambda1_s": total["invariants.lambda1"],
            "invariants.slice_candidates": c["invariants.slice_with_form"],
            "invariants.slice_rejected": c["invariants.slice_rejected"],
            "polynomials.arith_calls": c["polynomials.arith_calls"],
            "polynomials.linear_change_s": total["polynomials.linear_change"],
            "arrangements.multiple_points.calls": calls["arrangements.multiple_points"],
            "arrangements.multiple_points_s": total["arrangements.multiple_points"],
            "arrangements.pick_slice_form_s": total["arrangements.pick_slice_form"],
            "intlinalg.smith_normal_form.calls": calls["intlinalg.smith_normal_form"],
            "intlinalg.smith_normal_form_s": total["intlinalg.smith_normal_form"],
            "constraints.full_report_s": total["constraints.full_report"],
            "constraints.cyclic_kernel_rank_s": total["constraints.cyclic_kernel_rank"],
            "cyclo.homogeneous_char.calls": c["cyclo.homogeneous_char"],
            "cli.main.self_s": self_time["cli.main"],
            "cli.output_bytes": c["cli.output_bytes"],
            "trace.overhead_frac": overhead_frac,
        }
        return values
