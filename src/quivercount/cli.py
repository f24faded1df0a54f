"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 enumeration guard exceeded, 4 internal error (a consistency check in
the library raised ArithmeticError or AssertionError).  Big integers are
serialized as decimal strings in JSON output so consumers never face
precision ambiguity.
"""

import argparse
import json
import sys

from .families import cycle_quiver, jordan_quiver, path_quiver
from .finite_algebra import ring_from_spec
from .genfun import a_genfun, q_eulerian, r_genfun
from .multigraph import GUARD, GuardError, Quiver
from .repenum import (a_count, a_preproj, counterexample_counts,
                      fourier_fiber_count, m_count, m_preproj)
from .toric import a_d_polynomial, r_d_polynomial
from .verify import SUITES, run_suite


class ParseError(ValueError):
    pass


def parse_quiver(text):
    """Line-oriented quiver format: `vertices N`, one `edge i j` per arrow
    (i -> j), `#` comments, blank lines ignored.  Arrow ids follow file
    order, 1-based."""
    vertices = None
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if vertices is not None:
                raise ParseError("line %d: duplicate vertices directive" % lineno)
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ParseError("line %d: expected `vertices N` with N >= 1" % lineno)
            vertices = int(parts[1])
        elif parts[0] == "edge":
            if vertices is None:
                raise ParseError("line %d: `vertices N` must come first" % lineno)
            if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
                raise ParseError("line %d: expected `edge i j`" % lineno)
            i, j = int(parts[1]), int(parts[2])
            if not (1 <= i <= vertices and 1 <= j <= vertices):
                raise ParseError("line %d: vertex out of range 1..%d" % (lineno, vertices))
            arrows.append((i, j))
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, parts[0]))
    if vertices is None:
        raise ParseError("missing `vertices N` directive")
    return Quiver.from_edges(vertices, arrows)


def _builtin_quiver(name):
    body = name.split(":", 1)[1]
    if body.startswith("Sm:"):
        return jordan_quiver(int(body[3:]))
    if body.startswith("C") and body[1:].isdigit():
        return cycle_quiver(int(body[1:]))
    if body.startswith("A") and body[1:].isdigit():
        return path_quiver(int(body[1:]))
    raise ParseError("unknown builtin quiver %r (use C<n>, A<n> or Sm:<m>)" % name)


def load_quiver(spec):
    if spec.startswith("builtin:"):
        return _builtin_quiver(spec)
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read quiver file %s: %s" % (spec, exc))
    return parse_quiver(text)


def _parse_rank(text, quiver):
    try:
        alpha = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError("rank vector must be comma-separated integers")
    if len(alpha) != quiver.n:
        raise ParseError("rank vector has %d entries for %d vertices"
                         % (len(alpha), quiver.n))
    return alpha


def _poly_json(p):
    return {k: str(v) for k, v in p.as_dict().items()}


def _ratfun_json(f):
    return {"num": _poly_json(f.num), "den": _poly_json(f.den_poly())}


def _emit(args, text_value, json_value):
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _add_common(sub, brute=False):
    sub.add_argument("--quiver", required=True,
                     help="quiver file or builtin:<name> (builtin:C3, builtin:A3, builtin:Sm:2)")
    if brute:
        sub.add_argument("--ring", required=True,
                         help="ring spec: fq(p[,k]) | kd(spec,d) | eps(spec) | sqz(fq(p[,k]),n)")
        sub.add_argument("--rank", required=True, help="comma-separated rank vector, e.g. 1,1")
        sub.add_argument("--guard", type=int, default=GUARD,
                         help="the most enumerands any one enumeration may list: GL "
                              "classes, arrow solves, contraction terms, points "
                              "(default 2^24)")
    sub.add_argument("--format", choices=["text", "json"], default="text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivercount",
        description="Exact counting of locally free quiver representations "
                    "over finite commutative algebras.")
    subs = parser.add_subparsers(dest="verb", required=True)

    for verb, text in (("poly", "count polynomial A_d in q"),
                       ("rdpoly", "depth-sum polynomial R_d in q")):
        p = subs.add_parser(verb, help=text)
        _add_common(p)
        p.add_argument("-d", type=int, required=True)

    p = subs.add_parser("genfun", help="rational generating function in (q, T)")
    _add_common(p)
    p.add_argument("--which", choices=["A", "R"], default="A")

    p = subs.add_parser("series", help="T-expansion coefficients of a generating function")
    _add_common(p)
    p.add_argument("--which", choices=["A", "R"], default="A")
    p.add_argument("--order", type=int, required=True)

    p = subs.add_parser("tutte", help="Tutte polynomial in (x, y)")
    _add_common(p)

    p = subs.add_parser("qeulerian", help="q-analog Eulerian polynomial F_m(q, T)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    for verb, text in (("brute-m", "isomorphism classes by group average"),
                       ("brute-a", "absolutely indecomposable classes"),
                       ("brute-preproj-m", "preprojective classes"),
                       ("brute-preproj-a", "absolutely indecomposable preprojective classes"),
                       ("fourier", "zero-fiber cardinality, two ways")):
        _add_common(subs.add_parser(verb, help=text), brute=True)

    p = subs.add_parser("counterexample", help="self-duality failure counts over square-zero rings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = subs.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--slow", action="store_true", help="include the flag-gated slow checks")
    return parser


def run(args):
    quiver = load_quiver(args.quiver) if "quiver" in vars(args) else None
    if args.verb in ("poly", "rdpoly", "tutte", "qeulerian"):
        if args.verb in ("poly", "rdpoly"):
            fn = a_d_polynomial if args.verb == "poly" else r_d_polynomial
            value = fn(quiver.graph, args.d)
        else:
            value = quiver.graph.tutte() if args.verb == "tutte" else q_eulerian(args.m)
        _emit(args, str(value), _poly_json(value))
    elif args.verb == "genfun":
        value = (a_genfun if args.which == "A" else r_genfun)(quiver.graph)
        _emit(args, str(value), _ratfun_json(value))
    elif args.verb == "series":
        coeffs = (a_genfun if args.which == "A" else r_genfun)(quiver.graph).series(args.order)
        if args.format == "json":
            print(json.dumps([_poly_json(c) for c in coeffs]))
        else:
            for d, c in enumerate(coeffs):
                print("T^%d: %s" % (d, c))
    elif args.verb in ("brute-m", "brute-a", "brute-preproj-m", "brute-preproj-a", "fourier"):
        ring = ring_from_spec(args.ring)
        alpha = _parse_rank(args.rank, quiver)
        fn = {"brute-m": m_count, "brute-a": a_count, "brute-preproj-m": m_preproj,
              "brute-preproj-a": a_preproj, "fourier": fourier_fiber_count}[args.verb]
        value = fn(quiver, ring, alpha, guard=args.guard)
        _emit(args, str(value), {"count": str(value)})
    elif args.verb == "counterexample":
        a, b = counterexample_counts(args.n, args.q)
        _emit(args, "A = %d\nB = %d\nB - A = %d" % (a, b, b - a),
              {"A": str(a), "B": str(b), "difference": str(b - a)})
    elif args.verb == "verify":
        results = run_suite(args.suite, slow=args.slow)
        failed = 0
        for label, ok in results:
            print("%s  %s" % ("PASS" if ok else "FAIL", label))
            failed += 0 if ok else 1
        print("%d checks, %d failed" % (len(results), failed))
        return 1 if failed else 0
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "guard", 0) < 0:
        parser.error("argument --guard: must be non-negative, got %d" % args.guard)
    try:
        return run(args)
    except GuardError as exc:
        print("guard exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
