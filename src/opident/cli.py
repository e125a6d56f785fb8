"""Command-line front end.

    opident verify theorem1 | verify prop13 | verify lemmas
    opident hankel | uvarov | chebyshev | selftest

Exit codes: 0 = every check passed, 1 = a mathematical mismatch (the first
counterexample is serialized) or a domain error (one "error:" line), 2 = usage
or I/O error.  All rationals print as "p/q" strings; with a fixed seed and
flags, the JSON output is byte-identical between runs (wall-clock times are
never serialized).  Conjecture rows are informational and never affect the
exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chebyshev as cheb
from .identity import (
    _XS_POOL,
    _XS_POOL_INT,
    _YS_POOL,
    _jsonify,
    sweep_jacobi,
    sweep_lemmas,
    sweep_prop13,
    sweep_theorem1_atom,
    sweep_theorem1_series,
    uvarov_system,
)
from .moments import (
    ChebyshevCatalanFunctional,
    DomainError,
    FiniteAtomFunctional,
    functional_from_json,
)
from .ring import binomial, format_rational, parse_rational

DEFAULT_SEED = 42


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _load_functional(path: str | None, default=None):
    if path is None:
        if default is None:
            raise SystemExit2("--functional is required for this command")
        return default
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read functional file: {exc}")
    try:
        return functional_from_json(text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        # RecursionError: nesting deeper than the JSON decoder can follow
        raise SystemExit2(f"malformed functional JSON: {exc}")


class SystemExit2(Exception):
    """Usage / I/O problem: maps to exit code 2."""


def _int_at_least(low: int):
    """argparse type: an integer flag with a lower bound (usage error below it)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _parse_rational_list(text: str | None):
    if not text:
        return ()
    try:
        return tuple(parse_rational(part) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit2(f"bad rational list {text!r}: {exc}")


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("OPIDENT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit2(f"OPIDENT_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _report_sweep(reports, args, command: str, config: dict) -> int:
    bad = [r for r in reports if not r.equal]
    if args.json:
        payload = {
            "command": command,
            "config": config,
            "instances": len(reports),
            "failures": len(bad),
            "all_equal": not bad,
            "first_counterexample": bad[0].to_json_dict() if bad else None,
        }
        _emit_json(payload)
    else:
        print(f"{command}: {len(reports)} instances checked")
        if bad:
            first = bad[0]
            print(f"FAIL  first counterexample: {json.dumps(first.to_json_dict(), sort_keys=True)}")
        else:
            print("PASS  all instances equal")
    return 0 if not bad else 1


# Default (max_n, max_k, max_m) of `verify theorem1`, atom and series mode.
# Series mode runs k <= _SERIES_MAX_K, a cap set when the rhs walked k
# levels: one --max-k 7 trial at --truncation 25 (105 instances) takes
# 0.17-0.20 s through the CLI (Python 3.11.7, a shared 2-vCPU host).
_THEOREM1_SHAPE = {False: (6, 3, 3), True: (4, 2, 2)}
_SERIES_MAX_K = 7


def _cmd_verify_theorem1(args) -> int:
    seed = _seed_from(args)
    functional = None
    for name, default in zip(("max_n", "max_k", "max_m"), _THEOREM1_SHAPE[args.series]):
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.series and args.max_k < 1:
        raise SystemExit2("series mode needs k >= 1 formal y (--max-k at least 1); "
                          "k = 0 has no series to compare, use atom mode")
    if args.series and args.max_k > _SERIES_MAX_K:
        raise SystemExit2(f"series mode runs k <= {_SERIES_MAX_K} formal ys "
                          f"(--max-k at most {_SERIES_MAX_K})")
    pools = (("--max-m", args.max_m, "xs", _XS_POOL_INT if args.series else _XS_POOL),
             ("--max-k", 0 if args.series else args.max_k, "ys", _YS_POOL))
    for flag, count, kind, pool in pools:
        if count > len(pool):
            raise SystemExit2(f"{flag} {count} needs {count} distinct {kind}; the sweep draws "
                              f"them from a pool of {len(pool)}")
    if args.series:
        # The cleared lhs of an (n, k) instance starts at total degree
        # n k - C(k, 2); a truncation at or below it compares nothing.  The
        # moment draw runs to mu_h, h = 2 max_n - 2 + max_m + T + C(max_k, 2);
        # build_ortho_system reads on to mu_(2 depth - 1), depth = max_n + max_m - 1.
        least = 1 + max(args.max_n * k - binomial(k, 2) for k in range(1, args.max_k + 1))
        drawn = max(2 * (args.max_n + args.max_m) - 3, 0) - (
            2 * args.max_n - 2 + args.max_m + binomial(args.max_k, 2))
        if args.truncation < max(least, drawn):
            cause = ("compares no coefficient of the largest instance" if args.truncation < least
                     else "draws too few moments for this shape")
            raise SystemExit2(f"--truncation {args.truncation} {cause}; this shape needs "
                              f"--truncation at least {max(least, drawn)}")
    if args.functional:
        if args.series:
            raise SystemExit2("--functional is not supported with --series "
                              "(the series sweep draws its own moment sequences)")
        functional = _load_functional(args.functional)
        if not isinstance(functional, FiniteAtomFunctional):
            raise SystemExit2("atom-mode verification needs a finite-atom functional")
    config = {
        "seed": seed,
        "max_n": args.max_n,
        "max_k": args.max_k,
        "max_m": args.max_m,
        "trials": args.trials,
        "series": bool(args.series),
        "truncation": args.truncation,
    }
    try:
        if args.series:
            reports = sweep_theorem1_series(
                seed,
                trials=args.trials,
                truncation=args.truncation,
                max_n=args.max_n,
                ks=tuple(range(1, args.max_k + 1)),
                max_m=args.max_m,
            )
        else:
            reports = sweep_theorem1_atom(
                seed,
                trials=args.trials,
                max_n=args.max_n,
                max_k=args.max_k,
                max_m=args.max_m,
                functional=functional,
            )
    except ValueError as exc:
        # a shape the random functionals cannot serve (depth above the atom
        # count); with max_m = 0 the k = 0 left-hand side at n = max_n still
        # divides by H(max_n), so the depth is max_n
        shape = "max_n + max_m - 1" if args.max_m else "max_n"
        depth = args.max_n + max(args.max_m, 1) - 1
        raise SystemExit2(f"sweep depth {shape} = {depth} not supported: {exc}")
    return _report_sweep(reports, args, "verify theorem1", config)


def _cmd_verify_prop13(args) -> int:
    seed = _seed_from(args)
    config = {"seed": seed, "max_n": args.max_n, "trials": args.trials}
    try:
        reports = sweep_prop13(seed, trials=args.trials, max_n=args.max_n)
    except ValueError as exc:
        # the depth max_n + 2 must stay within the 8 atoms of the random functionals
        raise SystemExit2(f"verify prop13 needs max_n <= 6, sweep depth max_n + 2: {exc}")
    return _report_sweep(reports, args, "verify prop13", config)


def _cmd_verify_lemmas(args) -> int:
    seed = _seed_from(args)
    config = {"seed": seed, "max_n": args.max_n, "trials": args.trials}
    reports = sweep_lemmas(seed, trials=args.trials, max_n=args.max_n)
    reports += sweep_jacobi(seed)
    return _report_sweep(reports, args, "verify lemmas", config)


def _cmd_hankel(args) -> int:
    f = _load_functional(args.functional, default=ChebyshevCatalanFunctional())
    xs = _parse_rational_list(args.xs)
    ys = _parse_rational_list(args.ys)
    if ys and not isinstance(f, FiniteAtomFunctional):
        raise SystemExit2("rational y parameters need a finite-atom functional")
    value = f.modified_hankel_det(args.n, xs, ys)
    if args.json:
        _emit_json(
            {
                "command": "hankel",
                "n": args.n,
                "xs": [format_rational(x) for x in xs],
                "ys": [format_rational(y) for y in ys],
                "value": format_rational(value),
            }
        )
    else:
        print(format_rational(value))
    return 0


def _cmd_uvarov(args) -> int:
    f = _load_functional(args.functional)
    if not isinstance(f, FiniteAtomFunctional):
        raise SystemExit2("the uvarov command needs a finite-atom functional")
    ys = _parse_rational_list(args.ys)
    xs_fixed = _parse_rational_list(args.xs_fixed)
    try:
        result = uvarov_system(f, ys=ys, upto=args.max_n, xs_fixed=xs_fixed)
    except ValueError as exc:
        # a repeated parameter, or a fixed x on an atom node
        raise SystemExit2(str(exc))
    gram = [
        [format_rational(result.gram.get(i, j)) for j in range(result.gram.cols)]
        for i in range(result.gram.rows)
    ]
    rows = [
        {
            "n": n,
            "coefficients": [format_rational(c) for c in poly.coeffs],
            "degree_ok": ok,
        }
        for n, (poly, ok) in enumerate(zip(result.polys, result.degree_ok))
    ]
    if args.json:
        _emit_json(
            {
                "command": "uvarov",
                "ys": [format_rational(y) for y in ys],
                "xs_fixed": [format_rational(x) for x in xs_fixed],
                "polynomials": rows,
                "gram": gram,
                "orthogonal": result.orthogonal,
            }
        )
    else:
        for row in rows:
            flag = "" if row["degree_ok"] else "   (degree dropped: degenerate scenario)"
            print(f"P_{row['n']}: {row['coefficients']}{flag}")
        print("gram:")
        for line in gram:
            print("  " + "  ".join(line))
        print("orthogonal:", "yes" if result.orthogonal else "NO")
    # A dropped degree is a documented scenario, not a failure; a broken
    # Gram matrix is a real mismatch.
    return 0 if result.orthogonal else 1


def _cmd_chebyshev(args) -> int:
    run = cheb.run_chebyshev_suite(args.max_n)
    if args.json:

        def row(r):
            return {"id": r.identity, "n": r.params["n"], "lhs": _jsonify(r.lhs, r.equal),
                    "rhs": _jsonify(r.rhs, r.equal), "equal": r.equal, "note": r.note}

        payload = {
            "command": "chebyshev",
            "max_n": args.max_n,
            "theorem14": [{**r.params, "equal": r.equal} for r in run.theorem14],
            "theorem15": [{**r.params, "equal": r.equal} for r in run.theorem15],
            "closed_forms": [row(r) for r in run.closed_forms],
            "conjectures": [row(r) for r in run.conjectures],
            "all_theorems_hold": run.all_theorems_hold,
        }
        _emit_json(payload)
    else:
        t14_bad = sum(not r.equal for r in run.theorem14)
        t15_bad = sum(not r.equal for r in run.theorem15)
        print(f"7.9  (n <= {args.max_n}, a grid): "
              + ("all equal" if not t14_bad else f"{t14_bad} FAILURES"))
        print(f"7.13 (n <= {args.max_n}, a,b grid): "
              + ("all equal" if not t15_bad else f"{t15_bad} FAILURES"))
        for ident in dict.fromkeys(r.identity for r in run.closed_forms):
            good = all(r.equal for r in run.closed_forms if r.identity == ident)
            if ident == "7.16":
                status = "all equal" if good else "stated case labels FAIL (rotated by one)"
            else:
                status = "all equal" if good else "FAILURES"
            print(f"{ident}: {status}")
        print("conjectures:")
        for r in run.conjectures:
            mark = "holds" if r.equal else "fails"
            detail = "" if r.equal else f"  lhs={r.lhs}  rhs={r.rhs}"
            print(f"  {r.identity} n={r.params['n']}: {mark}{detail}")
    return 0 if run.all_theorems_hold else 1


def _cmd_selftest(args) -> int:
    seed = _seed_from(args)
    failures = 0

    def check(label: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures += 1

    reports = sweep_theorem1_atom(seed, trials=3, max_n=4, max_k=2, max_m=2)
    check(f"theorem1 atom sweep ({len(reports)} instances)", all(r.equal for r in reports))
    reports = sweep_theorem1_series(seed, trials=1, truncation=12, max_n=2, ks=(1, 2), max_m=1)
    check(f"theorem1 series sweep ({len(reports)} instances)", all(r.equal for r in reports))
    reports = sweep_prop13(seed, trials=1, max_n=3)
    check(f"prop13 confluent sweep ({len(reports)} instances)", all(r.equal for r in reports))
    reports = sweep_lemmas(seed, trials=2, max_n=3)
    check(f"lemma 8/9 sweep ({len(reports)} instances)", all(r.equal for r in reports))
    reports = sweep_jacobi(seed, sizes=(4,))
    check(f"jacobi condensation ({len(reports)} instances)", all(r.equal for r in reports))
    run = cheb.run_chebyshev_suite(max_n=6)
    check("chebyshev closed-form suite", run.all_theorems_hold)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opident",
        description="Exact checks of the determinant identity for moments of "
        "orthogonal polynomials and its applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, jsonflag=True):
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="PRNG seed (default: OPIDENT_SEED or 42)")
        if jsonflag:
            p.add_argument("--json", action="store_true", help="emit a JSON report")

    verify = sub.add_parser("verify", help="run a verification sweep")
    vsub = verify.add_subparsers(dest="target", required=True)

    p = vsub.add_parser("theorem1", help="the main determinant identity")
    p.add_argument("--max-n", type=_int_at_least(0), help="default 6, 4 with --series")
    p.add_argument("--max-k", type=_int_at_least(0),
                   help=f"default 3; with --series default 2, at most {_SERIES_MAX_K}")
    p.add_argument("--max-m", type=_int_at_least(0), help="default 3, 2 with --series")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--truncation", type=_int_at_least(1), default=25)
    p.add_argument("--series", action="store_true",
                   help="formal-series mode over random moment sequences")
    p.add_argument("--functional", help="JSON functional to use instead of random ones")
    add_common(p)
    p.set_defaults(func=_cmd_verify_theorem1)

    p = vsub.add_parser("prop13", help="confluent (repeated-parameter) cases")
    p.add_argument("--max-n", type=_int_at_least(0), default=5)
    p.add_argument("--trials", type=_int_at_least(1), default=4)
    add_common(p)
    p.set_defaults(func=_cmd_verify_prop13)

    p = vsub.add_parser("lemmas", help="condensation lemmas and Jacobi identity")
    p.add_argument("--max-n", type=_int_at_least(0), default=6)
    p.add_argument("--trials", type=_int_at_least(1), default=10)
    add_common(p)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("hankel", help="Hankel determinant of (modified) moments")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--functional", help="JSON functional (default: chebyshev)")
    p.add_argument("--xs", help="comma-separated rational x parameters")
    p.add_argument("--ys", help="comma-separated rational y parameters")
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_hankel)

    p = sub.add_parser("uvarov", help="orthogonal polynomials of a modified density")
    p.add_argument("--functional", required=True, help="JSON atoms functional")
    p.add_argument("--ys", help="comma-separated rational pole parameters")
    p.add_argument("--xs-fixed", dest="xs_fixed",
                   help="comma-separated fixed zero parameters (x_2, x_3, ...)")
    p.add_argument("--max-n", type=_int_at_least(0), default=5)
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_uvarov)

    p = sub.add_parser("chebyshev", help="Chebyshev/Catalan evaluation suite and conjectures")
    p.add_argument("--max-n", type=_int_at_least(1), default=10)
    add_common(p, seed=False)
    p.set_defaults(func=_cmd_chebyshev)

    p = sub.add_parser("selftest", help="quick end-to-end self check")
    add_common(p, jsonflag=False)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        # a hypothesis of the theory fails for the input, e.g. a provided
        # functional whose Hankel minors vanish at the depth the sweep needs
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
