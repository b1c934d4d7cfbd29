"""Command-line interface: analyze, constraints, arrangement, cyclo."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii

from .arrangements import CentralArrangement3, arrangement_report
from .constraints import SingularSetup, full_report
from .cyclo import CycloProduct, cyclotomic, factor_unity, homogeneous_char
from .errors import (
    GenericityError,
    InputError,
    LeNumbersError,
    PolyParseError,
    ResourceLimitError,
)
from .invariants import analyze_poly
from .localring import Budget
from .polynomials import parse_poly

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GENERICITY = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the input-error exit code
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lenumbers",
                     description="Exact slice invariants and Milnor-fiber "
                                 "monodromy constraints for hypersurface "
                                 "singularities with one-dimensional critical locus.")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze, constraints, arrangement, cyclo = (sub.add_parser(name, help=text) for name, text in (
        ("analyze", "compute slice invariants of a polynomial, then constraints"),
        ("constraints", "run the constraint engine on numeric setup data"),
        ("arrangement", "analyze a central hyperplane arrangement in C^3"),
        ("cyclo", "cyclotomic utilities: phi, unity, homchar, gcd")))
    for command in (analyze, constraints, arrangement):
        command.add_argument("--input", help="path to a JSON job file, '-' for stdin, "
                                             "or inline JSON starting with '{'")
    for command in (analyze, constraints, arrangement, cyclo):
        command.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--seed", type=int, default=None,
                         help="first t of the slice forms (1, t, t^2, ...) "
                              "tried after the coordinate forms when z0 is "
                              "absent (default 0); coefficients reach "
                              "seed^(k-1) for k variables, so keep it small")
    analyze.add_argument("--max-pairs", type=int, default=Budget.max_pairs)
    analyze.add_argument("--max-monomials", type=int, default=Budget.max_monomials)
    cyclo.add_argument("operation", choices=("phi", "unity", "homchar", "gcd"))
    cyclo.add_argument("args", nargs="*")
    return parser


# built once: parse_args keeps no state between calls
_PARSER = _build_parser()


def _load_job(args) -> dict:
    if args.input is None:
        raise InputError("this command needs --input")
    text = args.input
    if text == "-":
        text = sys.stdin.read()
    elif not text.lstrip().startswith("{"):
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file: {exc}")
    try:
        job = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON input: {exc}")
    if not isinstance(job, dict):
        raise InputError("the JSON input must be an object")
    return job


def _z0(job: dict) -> list | None:
    """The optional slice form ``z0``: a JSON list, its entries read by the library."""
    z0 = job.get("z0")
    if z0 is not None and not isinstance(z0, list):
        raise InputError(f"'z0' must be a list of coefficients, not {z0!r}")
    return z0


def _json(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, built with ``str.join``.

    Given an indent, CPython's ``json.dumps`` leaves its C encoder for the
    pure-Python one, which takes 1.5 to 2 times as long on the CLI's payloads.
    ``indent`` is a newline and the indentation of ``value``'s own line; every
    dict key is a str, as in every payload the CLI writes.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _json(item, inner)
                 for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return json.dumps(value)


def _emit(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(_json(payload))
    else:
        print(text)


def _cmd_analyze(args) -> int:
    job = _load_job(args)
    try:
        poly_text = job["polynomial"]
        variables = job["variables"]
    except KeyError as missing:
        raise InputError(f"analyze input is missing the key {missing}")
    if not isinstance(poly_text, str):
        raise InputError("'polynomial' must be a string")
    if not isinstance(variables, list):
        raise InputError(f"'variables' must be a list of names, not {variables!r}")
    f = parse_poly(poly_text, variables)
    z0 = _z0(job)
    seed = args.seed if args.seed is not None else job.get("seed", 0)
    result = analyze_poly(f, z0=z0, seed=seed, names=variables,
                          budget=Budget(max_pairs=args.max_pairs,
                                        max_monomials=args.max_monomials))
    le = result.invariants
    payload = {
        "command": "analyze",
        "polynomial": poly_text,
        "variables": variables,
        "seed": seed,
        "slice_variables": list(result.slice_names),
        "le": le.to_dict(),
        "polar_ideal": (None if result.polar is None
                        else result.polar.ideal.to_strings(result.slice_names)),
        "constraints": None,
    }
    lines = [le.render_text()]
    if not le.genericity_ok:
        _emit(payload, "\n".join(lines), args.format)
        return EXIT_GENERICITY
    setup = SingularSetup.from_dict({**job, "n": result.setup.n, "mu0": le.mu0,
                                     "lambda0": le.lambda0, "omega": le.omega,
                                     "lambda1": le.lambda1})
    report = full_report(setup)
    # the pipeline's warnings follow the report's own, without repeats
    report = replace(report, warnings=tuple(dict.fromkeys(report.warnings + le.warnings)))
    payload["constraints"] = report.to_dict()
    lines.append(report.render_text())
    _emit(payload, "\n".join(lines), args.format)
    return EXIT_OK


def _cmd_constraints(args) -> int:
    job = _load_job(args)
    setup = SingularSetup.from_dict(job)
    report = full_report(setup)
    payload = {"command": "constraints", "setup": setup.to_dict(),
               "report": report.to_dict()}
    _emit(payload, report.render_text(), args.format)
    return EXIT_OK


def _cmd_arrangement(args) -> int:
    job = _load_job(args)
    if "normals" not in job:
        raise InputError("arrangement input is missing the key 'normals'")
    arr = CentralArrangement3(job["normals"])
    report = arrangement_report(arr, z0=_z0(job))
    payload = {"command": "arrangement",
               "normals": [[str(v) for v in n] for n in arr.normals],
               "report": report.to_dict()}
    _emit(payload, report.render_text(), args.format)
    return EXIT_OK


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"expected an integer, got {text!r}")


def _phi(k: str) -> tuple[dict, str]:
    poly = cyclotomic(_int(k)).to_string(["t"])
    return {"polynomial": poly}, poly


def _unity(d: str) -> tuple[dict, str]:
    product = factor_unity(_int(d))
    expanded = product.expand().to_string(["t"])
    return {"factors": str(product), "expanded": expanded}, f"{product} ; expands to {expanded}"


def _summary(product: CycloProduct) -> tuple[dict, str]:
    degree = product.degree()  # capped before str(product): it bounds every exponent
    fields = {"factors": str(product), "degree": degree, "trace": product.trace()}
    return fields, "{factors} ; degree {degree} ; trace {trace}".format(**fields)


# operation -> (usage of its arguments, the function from them to JSON fields and text)
_CYCLO = {
    "phi": ("K", _phi),
    "unity": ("D", _unity),
    "homchar": ("N D", lambda n, d: _summary(homogeneous_char(_int(n), _int(d)))),
    "gcd": ("'Phi_...' 'Phi_...'",
            lambda a, b: _summary(CycloProduct.parse(a).gcd(CycloProduct.parse(b)))),
}


def _cmd_cyclo(args) -> int:
    usage, report = _CYCLO[args.operation]
    if len(args.args) != len(usage.split()):
        raise InputError(f"usage: cyclo {args.operation} {usage}")
    fields, text = report(*args.args)
    _emit({"command": "cyclo", "operation": args.operation, **fields}, text, args.format)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "constraints": _cmd_constraints,
    "arrangement": _cmd_arrangement,
    "cyclo": _cmd_cyclo,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InputError, PolyParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GenericityError as exc:
        print(f"genericity failure: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LeNumbersError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
