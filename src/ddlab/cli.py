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
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from .cancellation import PIPELINE_BUDGET, cancellation_certificate
from .derivations import (
    CAP_EXCEEDED,
    DEFAULT_CAP,
    DerivationError,
    canonical_lnd,
    check_derivation_well_defined,
    check_exp_axioms,
    exp_map,
    ml_report,
    nilpotency_index,
)
from .elements import AlgebraContext, UnsupportedBaseRing, membership_with_witness
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
from .poly import Context, ParseError, parse_poly
from .presentations import (
    InvalidPresentation,
    cond_class,
    invariant_tuple,
    load_presentation,
    omega3_check,
    reduce_to_danielewski,
    validate_presentation,
)

SCHEMA = "dd-lab/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _budget(args, default: int) -> int:
    return default if args.budget is None else args.budget


def _pool_size(jobs: int, inputs: int, cpus: int | None) -> int:
    """Worker processes for a batch: never more than inputs or CPUs; 1 means serial."""
    return max(1, min(jobs, inputs, cpus or 1))


def _expect(ok: bool, what: str, want: str, value) -> None:
    """Reject a JSON value of the wrong type as an input error."""
    if not ok:
        raise InputError(f"{what} must be {want}, got {type(value).__name__}")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
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


def _emit(payload: dict, lines: list[str], args) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for line in lines:
            print(line)


# -- subcommand handlers: each returns (exit_code, payload, lines) ----------------


def _run_validate(path: str, args):
    p = _load_presentation(path)
    report = validate_presentation(p)
    payload = _report_payload("validation", path, {"report": report.to_json()})
    lines = [f"{path}: {'PASS' if report.passed else 'FAIL'}"]
    lines += [f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in report.items]
    return (EXIT_PASS if report.passed else EXIT_FAIL), payload, lines


def _run_invariants(path: str, args):
    p = _load_presentation(path)
    try:
        tup = invariant_tuple(p)
    except InvalidPresentation as exc:
        raise InputError(f"{path}: {exc}") from exc
    cls = cond_class(p)
    payload = _report_payload(
        "invariants", path, {"tuple": list(tup.as_tuple()), "condition_class": cls}
    )
    return EXIT_PASS, payload, [f"(d,e,r,s) = {tup}", f"condition class: {cls}"]


def _run_omega3(path: str, args):
    p = _load_presentation(path)
    report = omega3_check(p, budget=_budget(args, DEFAULT_BUDGET))
    payload = _report_payload("omega3", path, {"report": report.to_json()})
    lines = [f"{path}: {'PASS' if report.passed else 'FAIL'}"]
    lines += [f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in report.items]
    return (EXIT_PASS if report.passed else EXIT_FAIL), payload, lines


def _run_lnd(path: str, args):
    p = _load_presentation(path)
    actx = AlgebraContext(p)
    d = canonical_lnd(actx)
    ok = check_derivation_well_defined(d)
    indices = {}
    for name in actx.generator_names():
        idx = nilpotency_index(d, actx.gen(name), args.cap)
        indices[name] = None if idx is CAP_EXCEEDED else idx
    ml = ml_report(p)
    payload = _report_payload(
        "lnd",
        path,
        {
            "images": d.to_json(),
            "well_defined": ok,
            "nilpotency_indices": indices,
            "ml_report": ml.to_json(),
        },
    )
    lines = [f"derivation images: {d.to_json()}", f"well defined: {ok}"]
    lines += [f"nilpotency index of {k}: {v if v is not None else 'cap exceeded'}"
              for k, v in indices.items()]
    if ml.conclusion:
        lines.append(ml.conclusion)
    passed = ok and all(v is not None for v in indices.values())
    return (EXIT_PASS if passed else EXIT_FAIL), payload, lines


def _run_exp(path: str, args):
    p = _load_presentation(path)
    actx = AlgebraContext(p)
    d = canonical_lnd(actx)
    phi = exp_map(d, args.cap)
    report = check_exp_axioms(phi)
    payload = _report_payload(
        "exp", path, {"coefficients": phi.to_json(), "axioms": report.to_json()}
    )
    lines = [f"{name}: {coeffs}" for name, coeffs in phi.to_json().items()]
    lines.append(f"axioms: {'PASS' if report.passed else 'FAIL'}")
    return (EXIT_PASS if report.passed else EXIT_FAIL), payload, lines


def _run_fiber(path: str, args):
    p = _load_presentation(path)
    p.require_valid()
    base = p.base.variables
    ctx = Context(("X", "Y", "T", "Z") + base)
    x = ctx.var("X")
    rel1 = x ** p.d * ctx.var("Y") - p.P.transfer(ctx)
    rel2 = x ** p.e * ctx.var("T") - p.Q.transfer(ctx)
    keep = {"Z"} | set(base)
    gens = elimination_ideal([x, rel1, rel2], keep, budget=_budget(args, DEFAULT_BUDGET))
    payload = _report_payload("fiber", path, {"generators": [str(g) for g in gens]})
    named = ", ".join(str(g) for g in gens) if gens else "0"
    return EXIT_PASS, payload, [f"x*B intersected with R[z] is generated by: {named}"]


def _run_member(path: str, args):
    p = _load_presentation(path)
    p.require_valid()
    adjoined = tuple(n for n in (args.adjoin or "").split(",") if n)
    try:
        actx = AlgebraContext(p, adjoined)
    except ValueError as exc:  # a name that is taken or not a variable name
        raise InputError(f"bad --adjoin: {exc}") from exc
    if args.element is None:
        raise InputError("member requires --element with a JSON map exponent -> polynomial")
    try:
        raw = json.loads(args.element)
        _expect(isinstance(raw, dict), "--element", "a JSON object", raw)
        for v in raw.values():
            _expect(isinstance(v, str), "each --element coefficient", "a string", v)
        coeffs = {int(k): parse_poly(v, actx.coeff_ctx) for k, v in raw.items()}
    except (json.JSONDecodeError, ValueError, ParseError) as exc:
        raise InputError(f"bad --element: {exc}") from exc
    form = LaurentForm(actx.coeff_ctx, coeffs)
    try:
        result = membership_with_witness(form, actx, _budget(args, DEFAULT_BUDGET))
    except UnsupportedBaseRing as exc:
        raise InputError(str(exc)) from exc
    payload = _report_payload(
        "membership",
        path,
        {
            "element": form.to_json(),
            "member": result.member,
            "witness": str(result.witness) if result.witness is not None else None,
            "certificate_basis": result.certificate,
        },
    )
    if result.member:
        lines = [f"member: witness {result.witness}"]
    else:
        lines = ["not a member", f"certificate basis: {result.certificate}"]
    return (EXIT_PASS if result.member else EXIT_FAIL), payload, lines


def _parse_iso_data(data, ctx) -> IsoData:
    units = ("lambda1", "mu1", "beta1_tilde", "g2_prime")
    polys = ("delta1", "alpha1_tilde", "g1_prime")
    _expect(isinstance(data, dict), "isomorphism data", "a JSON object", data)
    for key in units:
        if key in data:
            _expect(type(data[key]) in (str, int, float), f"isomorphism data: {key}",
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


def _run_iso_transport(path: str, args):
    p = _load_presentation(path)
    data = _parse_iso_data(_read_json(args.data), p.poly_ctx)
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


def _run_iso_verify(path: str, args):
    src = _load_presentation(path)
    tgt = _load_presentation(args.target)
    src_ctx = AlgebraContext(src)
    tgt_ctx = AlgebraContext(tgt)
    fwd = _load_hom(args.forward, src_ctx, tgt_ctx)
    ok_f = verify_hom(fwd)
    body = {"forward_verified": ok_f}
    lines = [f"forward homomorphism: {'PASS' if ok_f else 'FAIL'}"]
    ok = ok_f
    if args.backward:
        bwd = _load_hom(args.backward, tgt_ctx, src_ctx)
        ok_b = verify_hom(bwd)
        pair = ok_f and ok_b and verify_iso_pair(fwd, bwd)
        body.update({"backward_verified": ok_b, "pair_verified": pair})
        lines.append(f"backward homomorphism: {'PASS' if ok_b else 'FAIL'}")
        lines.append(f"mutually inverse pair: {'PASS' if pair else 'FAIL'}")
        ok = pair
    payload = _report_payload("iso-verify", path, body)
    return (EXIT_PASS if ok else EXIT_FAIL), payload, lines


def _run_distinguish(path: str, args):
    p1 = _load_presentation(path)
    p2 = _load_presentation(args.other)
    cert = distinguish_by_invariants(p1, p2)
    payload = _report_payload("distinguish", path, cert.to_json())
    lines = [f"tuple 1: {cert.tuple1}", f"tuple 2: {cert.tuple2}", f"verdict: {cert.verdict}"]
    return (EXIT_PASS if cert.not_isomorphic else EXIT_FAIL), payload, lines


def _run_cancel_cert(path: str, args):
    p = _load_presentation(path)
    cert = cancellation_certificate(p, budget=_budget(args, PIPELINE_BUDGET), cap=args.cap)
    payload = cert.to_json()
    payload["input"] = path
    lines = [f"{'ok' if c.passed else 'FAIL'}: {c.name}" + (f" ({c.detail})" if c.detail and not c.passed else "")
             for c in cert.steps]
    lines.append(f"verdict: {cert.verdict}")
    if cert.f is not None:
        lines.insert(0, f"f = {cert.f.gen}")
        lines.insert(1, f"g = {cert.g.gen}")
        lines.insert(2, f"h = {cert.h.gen}")
    return (EXIT_PASS if cert.certified else EXIT_FAIL), payload, lines


def _run_danielewski_reduce(path: str, args):
    p = _load_presentation(path)
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


_HANDLERS = {
    "validate": _run_validate,
    "invariants": _run_invariants,
    "omega3": _run_omega3,
    "lnd": _run_lnd,
    "exp": _run_exp,
    "fiber": _run_fiber,
    "member": _run_member,
    "iso-transport": _run_iso_transport,
    "iso-verify": _run_iso_verify,
    "distinguish": _run_distinguish,
    "cancel-cert": _run_cancel_cert,
    "danielewski-reduce": _run_danielewski_reduce,
}


def _worker(item):
    command, path, args_dict = item
    ns = argparse.Namespace(**args_dict)
    try:
        return _HANDLERS[command](path, ns)
    except (InputError, InvalidPresentation, ParseError, BudgetExceeded, DerivationError) as exc:
        return EXIT_INPUT, {"schema": SCHEMA, "kind": "error", "input": path, "error": str(exc)}, [f"error: {exc}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddlab",
        description="Exact symbolic toolkit for double Danielewski type algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, multi_input=True, budget=False, cap=False):
        """A subcommand with the flags its handler reads."""
        sp = sub.add_parser(name, help=help)
        if multi_input:
            sp.add_argument("inputs", nargs="+", help="presentation file(s)")
            sp.add_argument("--jobs", type=int, default=1,
                            help="parallelize across multiple input files")
        else:
            sp.add_argument("inputs", nargs=1, help="presentation file")
        if budget:
            sp.add_argument("--budget", type=int, default=None,
                            help="Groebner reduction-step budget")
        if cap:
            sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                            help="iteration cap for nilpotency and chains")
        sp.add_argument("--json", action="store_true", help="emit structured JSON")
        sp.add_argument("--out", default=None, help="also write the JSON report to a file")
        return sp

    add("validate", "check the presentation invariants")
    add("invariants", "print (d, e, r, s)")
    add("omega3", "unit-ideal family conditions", budget=True)
    add("lnd", "canonical derivation, well-definedness, nilpotency", cap=True)
    add("exp", "exponential map of the canonical derivation", cap=True)
    add("fiber", "generators of x*B intersected with R[z]", budget=True)

    sp = add("member", "Laurent-form membership with witness", multi_input=False, budget=True)
    sp.add_argument("--element", help='JSON map of x-exponent to polynomial, e.g. {"-1": "Z^2 - 1"}')
    sp.add_argument("--adjoin", default="", help="comma-separated adjoined variables")

    sp = add("iso-transport", "transport a presentation along unit data", multi_input=False)
    sp.add_argument("--data", required=True, help="isomorphism data file")

    sp = add("iso-verify", "verify homomorphism files", multi_input=False)
    sp.add_argument("--target", required=True, help="target presentation file")
    sp.add_argument("--forward", required=True, help="generator-image file source -> target")
    sp.add_argument("--backward", default=None, help="generator-image file target -> source")

    sp = add("distinguish", "invariant-based non-isomorphism certificate", multi_input=False)
    sp.add_argument("--other", required=True, help="second presentation file")

    add("cancel-cert", "full stable-isomorphism certificate", budget=True, cap=True)
    add("danielewski-reduce", "eliminate Y when deg_Y Q = 1")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 1:
        print(f"error: --budget must be at least 1, got {budget}", file=sys.stderr)
        return EXIT_INPUT
    cap = getattr(args, "cap", 0)
    if cap < 0:
        print(f"error: --cap must be at least 0, got {cap}", file=sys.stderr)
        return EXIT_INPUT
    paths = args.inputs
    args_dict = {k: v for k, v in vars(args).items() if k not in ("inputs", "command")}
    items = [(args.command, path, args_dict) for path in paths]

    workers = _pool_size(getattr(args, "jobs", 1), len(items), os.cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, items))
    else:
        results = [_worker(item) for item in items]

    worst = max((code for code, _, _ in results), default=EXIT_PASS)
    payloads = [payload for _, payload, _ in results]
    try:
        for (_, payload, lines), path in zip(results, paths):
            if len(paths) > 1 and not args.json:
                print(f"== {path} ==")
            _emit(payload, lines, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): print nothing more, and point
        # stdout at devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.out:
        report = payloads[0] if len(payloads) == 1 else payloads
        try:
            Path(args.out).write_text(json.dumps(report, indent=2), encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT
    return worst


if __name__ == "__main__":
    sys.exit(main())
