"""Command-line interface.

Subcommands consume presentation files (JSON records with base_vars, d, e and
the polynomial strings P, Q) and emit human-readable lines or, with --json,
a versioned structured report.  Exit codes: 0 for pass/success, 1 for failed
checks, 2 for input errors and an unwritable --out path; a reader that closes
stdout early (`| head`) cuts the output short quietly and keeps the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from .cancellation import PIPELINE_BUDGET, SCHEMA, cancellation_certificate
from .derivations import (
    DEFAULT_CAP,
    DerivationError,
    canonical_lnd,
    check_derivation_well_defined,
    check_exp_axioms,
    exp_map,
    ml_report,
    nilpotency_index,
)
from .elements import AlgebraContext, AlgebraError, membership_with_witness
from .groebner import BudgetExceeded, DEFAULT_BUDGET, elimination_ideal
from .laurent import LaurentForm
from .isomorphisms import (
    HomomorphismError,
    IsoData,
    RHomomorphism,
    TransportError,
    distinguish_by_invariants,
    transport_presentation,
    verify_hom,
    verify_iso_pair,
)
from .poly import ParseError, parse_poly
from .presentations import (
    CheckItem,
    InvalidPresentation,
    cond_class,
    invariant_tuple,
    load_presentation,
    omega3_check,
    reduce_to_danielewski,
    validate_presentation,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _pool_size(jobs: int, inputs: int, cpus: int | None) -> int:
    """Worker processes for a batch: never more than inputs or CPUs; 1 means serial."""
    return max(1, min(jobs, inputs, cpus or 1))


def _expect(ok: bool, what: str, want: str, value) -> None:
    """Reject a JSON value of the wrong type as an input error."""
    if not ok:
        raise InputError(f"{what} must be {want}, got {type(value).__name__}")


def _distinct_keys(pairs: list) -> dict:
    """A JSON object from its key-value pairs; a repeated key is a ValueError."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ValueError(f"key {k!r} is repeated")
        out[k] = v
    return out


def _read_json(path: str, parse_float=float):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=parse_float)
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _load_presentation(path: str):
    try:
        return load_presentation(_read_json(path))
    except (InvalidPresentation, ParseError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _report_payload(kind: str, path: str, body: dict) -> dict:
    return {"schema": SCHEMA, "kind": kind, "input": path, **body}


def _report_result(kind: str, path: str, report):
    """A report as (exit_code, payload, lines): the verdict, then one line per check."""
    payload = _report_payload(kind, path, {"report": report.to_json()})
    lines = [f"{path}: {'PASS' if report.passed else 'FAIL'}"]
    lines += [f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in report.items]
    return (EXIT_PASS if report.passed else EXIT_FAIL), payload, lines


def _emit(text: str | None, lines: list[str], args) -> None:
    if args.json:
        print(text)
    else:
        for line in lines:
            print(line)


# -- subcommand handlers: each takes the loaded input presentation, its path and
# the parsed flags, and returns (exit_code, payload, lines) ------------------------


def _run_validate(p, path: str, args):
    return _report_result("validation", path, validate_presentation(p))


def _run_invariants(p, path: str, args):
    try:
        tup = invariant_tuple(p)
    except InvalidPresentation as exc:
        raise InputError(f"{path}: {exc}") from exc
    cls = cond_class(p)
    payload = _report_payload(
        "invariants", path, {"tuple": list(tup.as_tuple()), "condition_class": cls}
    )
    return EXIT_PASS, payload, [f"(d,e,r,s) = {tup}", f"condition class: {cls}"]


def _run_omega3(p, path: str, args):
    return _report_result("omega3", path, omega3_check(p, budget=args.budget))


def _run_lnd(p, path: str, args):
    actx = AlgebraContext(p)
    d = canonical_lnd(actx)
    ok = check_derivation_well_defined(d)
    indices = {name: nilpotency_index(d, actx.gen(name), args.cap) for name in actx.generator_names()}
    ml = ml_report(p)
    images = d.to_json()
    payload = _report_payload(
        "lnd",
        path,
        {
            "images": images,
            "well_defined": ok,
            "nilpotency_indices": indices,
            "ml_report": ml.to_json(),
        },
    )
    lines = [f"derivation images: {images}", f"well defined: {ok}"]
    lines += [f"nilpotency index of {k}: {v if v is not None else 'cap exceeded'}"
              for k, v in indices.items()]
    if ml.conclusion:
        lines.append(ml.conclusion)
    passed = ok and all(v is not None for v in indices.values())
    return (EXIT_PASS if passed else EXIT_FAIL), payload, lines


def _run_exp(p, path: str, args):
    actx = AlgebraContext(p)
    d = canonical_lnd(actx)
    phi = exp_map(d, args.cap)
    report = check_exp_axioms(phi)
    coefficients = phi.to_json()
    payload = _report_payload("exp", path, {"coefficients": coefficients, "axioms": report.to_json()})
    lines = [f"{name}: {coeffs}" for name, coeffs in coefficients.items()]
    lines.append(f"axioms: {'PASS' if report.passed else 'FAIL'}")
    return (EXIT_PASS if report.passed else EXIT_FAIL), payload, lines


def _run_fiber(p, path: str, args):
    actx = AlgebraContext(p)
    gens = elimination_ideal([actx.gen_ctx.var("X"), *actx.relations()], {"Z", *p.base.variables},
                             budget=args.budget)
    payload = _report_payload("fiber", path, {"generators": [str(g) for g in gens]})
    named = ", ".join(str(g) for g in gens) if gens else "0"
    return EXIT_PASS, payload, [f"x*B intersected with R[z] is generated by: {named}"]


def _run_member(p, path: str, args):
    p.require_valid()
    adjoined = tuple(n for n in (args.adjoin or "").split(",") if n)
    try:
        actx = AlgebraContext(p, adjoined)
    except ValueError as exc:  # a name that is taken or not a variable name
        raise InputError(f"bad --adjoin: {exc}") from exc
    if args.element is None:
        raise InputError("member requires --element with a JSON map exponent -> polynomial")
    try:
        raw = json.loads(args.element, object_pairs_hook=_distinct_keys)
        _expect(isinstance(raw, dict), "--element", "a JSON object", raw)
        for v in raw.values():
            _expect(isinstance(v, str), "each --element coefficient", "a string", v)
        keys, coeffs = {}, {}
        for k, v in raw.items():
            if not re.fullmatch(r"-?[0-9]+", k):  # int() also takes "1_0", " 3" and non-ASCII digits
                raise ValueError(f"key {k!r} is not an integer in ASCII digits")
            n = int(k)
            if n in keys:
                raise ValueError(f"keys {keys[n]!r} and {k!r} name the same exponent {n}")
            keys[n], coeffs[n] = k, parse_poly(v, actx.coeff_ctx)
    except (json.JSONDecodeError, ValueError, ParseError) as exc:
        raise InputError(f"bad --element: {exc}") from exc
    form = LaurentForm(actx.coeff_ctx, coeffs)
    try:
        result = membership_with_witness(form, actx, args.budget)
    except AlgebraError as exc:  # base variables, or a failed completeness report
        raise InputError(str(exc)) from exc
    payload = _report_payload(
        "membership",
        path,
        {
            "element": form.to_json(),
            "member": result.member,
            "witness": str(result.witness) if result.witness is not None else None,
            "certificate": result.certificate,
        },
    )
    if result.member:
        return EXIT_PASS, payload, [f"member: witness {result.witness}"]
    cert = result.certificate
    return EXIT_FAIL, payload, ["not a member", f"level {cert['level']}: remainder "
                                f"{cert['remainder']} modulo {cert['divisor']}"]


def _parse_iso_data(data, ctx) -> IsoData:
    units = ("lambda1", "mu1", "beta1_tilde", "g2_prime")
    polys = ("delta1", "alpha1_tilde", "g1_prime")
    _expect(isinstance(data, dict), "isomorphism data", "a JSON object", data)
    for key in units:  # Infinity and NaN still arrive as floats, which Fraction refuses
        if key in data:
            _expect(type(data[key]) in (str, int, Fraction, float), f"isomorphism data: {key}",
                    "a number or a string", data[key])
    for key in polys:
        if key in data:
            _expect(isinstance(data[key], str), f"isomorphism data: {key}", "a string", data[key])
    try:
        return IsoData(
            *(Fraction(data[key]) for key in units),
            *(parse_poly(data.get(key, "0"), ctx) for key in polys),
        )
    except (KeyError, ValueError, OverflowError, ZeroDivisionError, ParseError) as exc:
        raise InputError(f"bad isomorphism data: {exc}") from exc


def _run_iso_transport(p, path: str, args):
    # a number such as 0.1 is the exact decimal it spells
    data = _parse_iso_data(_read_json(args.data, parse_float=Fraction), p.P.ctx)
    try:
        result = transport_presentation(p, data)
    except TransportError as exc:
        payload = _report_payload("iso-transport", path, {"error": str(exc)})
        return EXIT_FAIL, payload, [f"transport failed: {exc}"]
    payload = _report_payload("iso-transport", path, result.to_json())
    lines = [
        f"target: d={result.target.d}, e={result.target.e}, P = {result.target.P}, Q = {result.target.Q}",
        f"forward images: {result.forward.to_json()}",
        f"backward images: {result.backward.to_json()}",
        "pair verified: True",
    ]
    return EXIT_PASS, payload, lines


def _load_hom(path: str, source: AlgebraContext, target: AlgebraContext):
    data = _read_json(path)
    _expect(isinstance(data, dict), path, "a JSON object", data)
    images_raw = data.get("images", data)
    _expect(isinstance(images_raw, dict), f"{path}: images", "a JSON object", images_raw)
    for text in images_raw.values():
        _expect(isinstance(text, str), f"{path}: each image", "a string", text)
    try:
        images = {
            name: target.element(parse_poly(text, target.gen_ctx))
            for name, text in images_raw.items()
        }
        return RHomomorphism(source, target, images)
    except (ParseError, HomomorphismError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _run_iso_verify(p, path: str, args):
    src_ctx = AlgebraContext(p)
    tgt_ctx = AlgebraContext(_load_presentation(args.target))
    fwd = _load_hom(args.forward, src_ctx, tgt_ctx)
    if args.backward:
        checks = verify_iso_pair(fwd, _load_hom(args.backward, tgt_ctx, src_ctx)).items
    else:
        checks = (CheckItem("forward homomorphism", verify_hom(fwd)),)
    body = {f"{key}_verified": c.passed for key, c in zip(("forward", "backward", "pair"), checks)}
    payload = _report_payload("iso-verify", path, body)
    lines = [f"{c.name}: {'PASS' if c.passed else 'FAIL'}" for c in checks]
    return (EXIT_PASS if all(c.passed for c in checks) else EXIT_FAIL), payload, lines


def _run_distinguish(p, path: str, args):
    cert = distinguish_by_invariants(p, _load_presentation(args.other))
    payload = _report_payload("distinguish", path, cert.to_json())
    lines = [f"tuple 1: {cert.tuple1}", f"tuple 2: {cert.tuple2}", f"verdict: {cert.verdict}"]
    return (EXIT_PASS if cert.not_isomorphic else EXIT_FAIL), payload, lines


def _run_cancel_cert(p, path: str, args):
    cert = cancellation_certificate(p, budget=args.budget, cap=args.cap)
    # the JSON is built only when it is rendered
    payload = {**cert.to_json(), "input": path} if args.json or args.out else None
    # the elements built before a failure, formatted once (read off the JSON
    # when it is built), then the steps
    lines = [f"{name} = {payload[name]['expr'] if payload else el}"
             for name, el in zip("fgh", (cert.f, cert.g, cert.h)) if el is not None]
    lines += [f"{'ok' if c.passed else 'FAIL'}: {c.name}" + (f" ({c.detail})" if c.detail and not c.passed else "")
              for c in cert.steps]
    lines.append(f"verdict: {cert.verdict}")
    return (EXIT_PASS if cert.certified else EXIT_FAIL), payload, lines


def _run_danielewski_reduce(p, path: str, args):
    try:
        red = reduce_to_danielewski(p)
    except InvalidPresentation as exc:
        raise InputError(f"{path}: {exc}") from exc
    payload = _report_payload("danielewski-reduce", path, red.to_json())
    lines = [
        f"target: {red.target}",
        f"generator map: {{x -> X, z -> Z, y -> {red.forward_images['Y']}, t -> {red.forward_images['T']}}}",
    ]
    return EXIT_PASS, payload, lines


def _worker(item):
    """One input file through its subcommand's handler; input errors become
    an exit-2 result.  Handlers are module-level, so a pool pickles them."""
    path, args = item
    try:
        return args.handler(_load_presentation(path), path, args)
    except (InputError, InvalidPresentation, ParseError, BudgetExceeded, DerivationError) as exc:
        return EXIT_INPUT, {"schema": SCHEMA, "kind": "error", "input": path, "error": str(exc)}, [f"error: {exc}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlab",
        description="Exact symbolic toolkit for double Danielewski type algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, multi_input=True, budget=None, cap=False):
        """A subcommand run by `handler`, with the flags the handler reads;
        `budget` is the default of its --budget flag, or None for no such flag."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        if multi_input:
            sp.add_argument("inputs", nargs="+", help="presentation file(s)")
            sp.add_argument("--jobs", type=int, default=1,
                            help="parallelize across multiple input files")
        else:
            sp.add_argument("inputs", nargs=1, help="presentation file")
        if budget is not None:
            sp.add_argument("--budget", type=int, default=budget,
                            help="step budget of the Groebner and membership work")
        if cap:
            sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                            help="iteration cap for nilpotency and chains")
        sp.add_argument("--json", action="store_true", help="emit structured JSON")
        sp.add_argument("--out", default=None, help="also write the JSON report to a file")
        return sp

    add("validate", _run_validate, "check the presentation invariants")
    add("invariants", _run_invariants, "print (d, e, r, s)")
    add("omega3", _run_omega3, "unit-ideal family conditions", budget=DEFAULT_BUDGET)
    add("lnd", _run_lnd, "canonical derivation, well-definedness, nilpotency", cap=True)
    add("exp", _run_exp, "exponential map of the canonical derivation", cap=True)
    add("fiber", _run_fiber, "generators of x*B intersected with R[z]", budget=DEFAULT_BUDGET)

    sp = add("member", _run_member, "Laurent-form membership with witness", multi_input=False,
             budget=DEFAULT_BUDGET)
    sp.add_argument("--element", help='JSON map of x-exponent to polynomial, e.g. {"-1": "Z^2 - 1"}')
    sp.add_argument("--adjoin", default="", help="comma-separated adjoined variables")

    sp = add("iso-transport", _run_iso_transport, "transport a presentation along unit data", multi_input=False)
    sp.add_argument("--data", required=True, help="isomorphism data file")

    sp = add("iso-verify", _run_iso_verify, "verify homomorphism files", multi_input=False)
    sp.add_argument("--target", required=True, help="target presentation file")
    sp.add_argument("--forward", required=True, help="generator-image file source -> target")
    sp.add_argument("--backward", default=None, help="generator-image file target -> source")

    sp = add("distinguish", _run_distinguish, "invariant-based non-isomorphism certificate", multi_input=False)
    sp.add_argument("--other", required=True, help="second presentation file")

    add("cancel-cert", _run_cancel_cert, "full stable-isomorphism certificate", budget=PIPELINE_BUDGET, cap=True)
    add("danielewski-reduce", _run_danielewski_reduce, "eliminate Y when deg_Y Q = 1")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a subcommand without one of these flags reads as its least value
    for flag, least in (("budget", 1), ("cap", 0), ("jobs", 1)):
        value = getattr(args, flag, least)
        if value < least:
            print(f"error: --{flag} must be at least {least}, got {value}", file=sys.stderr)
            return EXIT_INPUT
    paths = args.inputs
    items = [(path, args) for path in paths]

    workers = _pool_size(getattr(args, "jobs", 1), len(items), os.cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, items))
    else:
        results = [_worker(item) for item in items]

    worst = max((code for code, _, _ in results), default=EXIT_PASS)
    # each payload is rendered once, for stdout and for --out alike
    texts = [json.dumps(payload, indent=2) if args.json or args.out else None for _, payload, _ in results]
    try:
        for (_, _, lines), text, path in zip(results, texts, paths):
            if len(paths) > 1 and not args.json:
                print(f"== {path} ==")
            _emit(text, lines, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): print nothing more, and point
        # stdout at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.out:
        # a batch as json.dumps(payloads, indent=2) writes it: each rendering,
        # every line indented by two spaces, inside [ ]
        report = texts[0] if len(texts) == 1 else "[\n" + ",\n".join(
            "  " + text.replace("\n", "\n  ") for text in texts) + "\n]"
        try:
            Path(args.out).write_text(report, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT
    return worst


if __name__ == "__main__":
    sys.exit(main())
