"""Command-line front end.

One executable, `hermeq`, wires every piece of the library together:
form computation, the equivalence checks, table partitions, family
generation, the quartic example, bound evaluation, and the full
reproduction battery.  All results go to stdout as canonical JSON (big
integers as decimal strings), diagnostics go to stderr, and the exit
code is the verdict: 0 affirmative, 1 negative, 2 usage or bad input,
3 internal failure (a broken invariant or an arithmetic error, never a
verdict).
"""

import argparse
import json
import sys
import time

from . import __version__
from .algebra import invariant_order, norm_form, zeta_lattice
from .bounds import bound_report
from .equivalence import (gl2_pair_test, hermite_witness_check,
                          partition_gl2, reducible_pair, z_equiv_test)
from .family import (CertificateError, FamilyParams, build_kit, find_params,
                     generate_certified_pair, verify_kit_identities)
from .forms import hermite_form
from .intpoly import DomainError, degree, discriminant
from .jsonio import (canonical_dumps, element_to_json, form_to_json,
                     int_list_from_json, int_to_str, lattice_to_json,
                     load_table, matrix_to_json, pair_to_json,
                     poly_from_json, poly_to_json, read_int)
from .quartic import iota, principality_evidence, verify_example
from .reproduce import reproduce_all


def _parse_json(text, what):
    # integer literals are read like decimal strings: up to the input cap,
    # not bounded by the interpreter's own digit limit
    try:
        return json.loads(text, parse_int=lambda s: read_int(s, what))
    except json.JSONDecodeError as exc:
        raise DomainError("%s is not valid JSON: %s" % (what, exc))


def _poly_arg(text):
    obj = _parse_json(text, "polynomial")
    if isinstance(obj, list):
        return int_list_from_json(obj, "coefficient")
    return poly_from_json(obj)


def _vector_arg(text, what):
    obj = _parse_json(text, what)
    return int_list_from_json(obj, what)


def _cmd_form(args):
    return 0, form_to_json(hermite_form(_poly_arg(args.poly)))


def _cmd_disc(args):
    return 0, {"discriminant": int_to_str(discriminant(_poly_arg(args.poly)))}


def _cmd_order(args):
    return 0, lattice_to_json(invariant_order(_poly_arg(args.poly)))


def _cmd_normform(args):
    f = _poly_arg(args.poly)
    k = args.k if args.k is not None else degree(f) - 1
    lat = zeta_lattice(f, k)
    return 0, {"k": k, "form": form_to_json(norm_form(lat,
                                                      invariant_order(f)))}


def _cmd_check_z(args):
    w = z_equiv_test(_poly_arg(args.poly), _poly_arg(args.other))
    if w is None:
        return 1, {"equivalent": False, "witness": None}
    return 0, {"equivalent": True, "witness": {"e": w[0], "a": w[1]}}


def _cmd_check_gl2(args):
    f = _poly_arg(args.poly)
    beta = _vector_arg(args.beta, "beta")
    target = _vector_arg(args.target, "target")
    w = gl2_pair_test(f, beta, target)
    if w is None:
        return 1, {"related": False, "witness": None}
    return 0, {"related": True,
               "witness": {"gamma": matrix_to_json(w.gamma),
                           "sign": w.sign}}


def _cmd_check_hermite(args):
    f = _poly_arg(args.poly)
    g = _poly_arg(args.other)
    expr = _vector_arg(args.expr, "expr")
    u = hermite_witness_check(f, g, expr)
    if u is None:
        return 1, {"equivalent": False, "witness": None}
    return 0, {"equivalent": True, "witness": matrix_to_json(u)}


def _cmd_partition(args):
    table = load_table(args.table)
    classes = sorted(sorted(i + 1 for i in cls)
                     for cls in partition_gl2(table["minpoly"],
                                              table["betas"]))
    printed = sorted(table["classes"])
    return 0, {"table": table["name"],
               "minpoly": poly_to_json(table["minpoly"]),
               "count": len(classes),
               "classes": classes,
               "printed": printed,
               "agrees_with_printed": classes == printed}


def _cmd_reducible_pair(args):
    g, h, q = reducible_pair(_poly_arg(args.poly))
    u = hermite_witness_check(g, h, q)
    return 0, {"g": poly_to_json(g), "h": poly_to_json(h),
               "expr": poly_to_json(q), "witness": matrix_to_json(u)}


def _cmd_family_kit(args):
    kit = build_kit(args.n)
    return 0, {"n": args.n, "a": poly_to_json(kit.a),
               "b": poly_to_json(kit.b), "h": poly_to_json(kit.h),
               "k": poly_to_json(kit.k),
               "identities": verify_kit_identities(kit)}


def _cmd_family_find_params(args):
    params = find_params(args.n, monic=args.monic)
    return 0, {"n": params.n, "p": params.p, "c": params.c, "t": params.t}


def _cmd_family_gen(args):
    if (args.c is None) != (args.t is None):
        raise DomainError("give both --c and --t, or neither")
    if args.c is None:
        params = find_params(args.n, monic=args.monic)
    else:
        p = find_params(args.n, monic=True).p
        params = FamilyParams(args.n, p, args.c, args.t)
    bundle = generate_certified_pair(args.n, params)
    payload = {
        "n": bundle["n"], "p": bundle["p"], "c": bundle["c"],
        "t": bundle["t"],
        "f": poly_to_json(bundle["f"]),
        "g": poly_to_json(bundle["g"]),
        "recovery": poly_to_json(bundle["recovery"]),
        "witness_expr": poly_to_json(bundle["witness_expr"]),
        "witness": matrix_to_json(bundle["witness"]),
        "eisenstein_prime": bundle["eisenstein_prime"],
        "discriminant": int_to_str(bundle["discriminant"]),
        "properly_nonmonic": bundle["properly_nonmonic"],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(payload) + "\n")
    return 0, payload


def _cmd_quartic_iota(args):
    return 0, pair_to_json(iota(_poly_arg(args.poly)))


def _cmd_quartic_verify_example(args):
    report = verify_example()
    ok = (report["act_matches"] and report["disc_equal"]
          and report["disc_squarefree"])
    payload = dict(report, disc=int_to_str(report["disc"]))
    return (0 if ok else 1), payload


def _cmd_quartic_principal(args):
    f = _poly_arg(args.poly)
    ev = principality_evidence(f, args.bound)
    payload = {
        "status": ev["status"],
        "orientation": ev["orientation"],
        "bound": ev["bound"],
        "generator": (element_to_json(ev["generator"])
                      if ev["generator"] is not None else None),
    }
    return (0 if ev["status"] == "principal" else 1), payload


def _cmd_bounds(args):
    rep = bound_report(args.n, args.disc, monic=args.monic)
    return 0, {
        "n": rep["n"],
        "D": int_to_str(rep["D"]),
        "monic": rep["monic"],
        "height_bound": int_to_str(rep["height_bound"]),
        "degree_cap": rep["degree_cap"],
        "split_counts": {k: int_to_str(v)
                         for k, v in rep["split_counts"].items()},
    }


def _cmd_reproduce_all(args):
    def progress(num, name, seconds):
        sys.stderr.write("criterion %2d %-24s %8.2fs\n"
                         % (num, name, seconds))
        sys.stderr.flush()

    report = reproduce_all(table_dir=args.tables, on_progress=progress)
    return (0 if report["all_ok"] else 1), report


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hermeq",
        description="Exact arithmetic for Hermite equivalence of integer "
                    "polynomials: decomposable forms, invariant lattices, "
                    "equivalence witnesses, and the reproduction battery.")
    parser.add_argument("--version", action="version",
                        version="hermeq " + __version__)
    parser.add_argument("--manifest", metavar="PATH",
                        help="write a run manifest (command, inputs, "
                             "outputs, timing) to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=fn)
        return p

    p = add("form", _cmd_form, "decomposable form of a polynomial")
    p.add_argument("--poly", required=True)

    p = add("disc", _cmd_disc, "discriminant of a polynomial")
    p.add_argument("--poly", required=True)

    p = add("order", _cmd_order, "invariant order as a lattice")
    p.add_argument("--poly", required=True)

    p = add("normform", _cmd_normform,
            "norm form of the k-th invariant lattice")
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, default=None)

    p = add("check-z", _cmd_check_z,
            "translation equivalence of two monic polynomials")
    p.add_argument("--poly", required=True)
    p.add_argument("--other", required=True)

    p = add("check-gl2", _cmd_check_gl2,
            "Moebius relatedness of two generators over one polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--target", required=True)

    p = add("check-hermite", _cmd_check_hermite,
            "lattice witness for equivalence of the decomposable forms")
    p.add_argument("--poly", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--expr", required=True)

    p = add("partition", _cmd_partition,
            "equivalence classes of a table of generators")
    p.add_argument("--table", required=True)

    p = add("reducible-pair", _cmd_reducible_pair,
            "equivalent reducible pair built from a monic polynomial")
    p.add_argument("--poly", required=True)

    fam = sub.add_parser("family", help="series-based polynomial families")
    fsub = fam.add_subparsers(dest="family_command", required=True)
    p = fsub.add_parser("kit", help="series truncation kit for degree n")
    p.set_defaults(handler=_cmd_family_kit)
    p.add_argument("--n", type=int, required=True)
    p = fsub.add_parser("find-params", help="smallest usable parameters")
    p.set_defaults(handler=_cmd_family_find_params)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--monic", action="store_true")
    p = fsub.add_parser("gen", help="generate a certified pair")
    p.set_defaults(handler=_cmd_family_gen)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--monic", action="store_true")
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--out", default=None)

    qua = sub.add_parser("quartic", help="pairs of ternary quadratic forms")
    qsub = qua.add_subparsers(dest="quartic_command", required=True)
    p = qsub.add_parser("iota", help="embed a quartic as a form pair")
    p.set_defaults(handler=_cmd_quartic_iota)
    p.add_argument("--poly", required=True)
    p = qsub.add_parser("verify-example", help="check the worked example")
    p.set_defaults(handler=_cmd_quartic_verify_example)
    p = qsub.add_parser("principal-evidence",
                        help="search for a generator of the level-one "
                             "invariant lattice")
    p.set_defaults(handler=_cmd_quartic_principal)
    p.add_argument("--poly", required=True)
    p.add_argument("--bound", type=int, default=16)

    p = add("bounds", _cmd_bounds, "effective bound report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--monic", action="store_true")

    p = add("reproduce-all", _cmd_reproduce_all,
            "run the full fifteen-criterion battery")
    p.add_argument("--tables", default=None,
                   help="directory with table fixtures (packaged data "
                        "otherwise)")
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code, payload = args.handler(args)
    except CertificateError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (AssertionError, ArithmeticError, RecursionError) as exc:
        sys.stderr.write("error: internal failure: %s: %s\n"
                         % (type(exc).__name__, " ".join(str(exc).split())))
        return 3
    out = canonical_dumps(payload) + "\n"
    sys.stdout.write(out)
    if args.manifest:
        manifest = {
            "command": args.command,
            "inputs": {"argv": list(argv)},
            "outputs": payload,
            "timings": {"seconds": round(time.monotonic() - start, 6)},
            "version": __version__,
            "determinism_seed": None,
        }
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(manifest) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
