"""Command-line interface.

Subcommands: build, lift, hecke, signs, verify.  Exit codes: 0 on
success, 1 when a requested verification fails, 2 for usage or parse
errors.  Coefficient files are the plain-text format of coeffio; tables
are CSV with header "X,R_tot,R_fund"; verification reports are JSON with
a versioned schema, and every witness carries the index and the
coefficient value.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import coeffio, forms, hecke, signs

# Names that stand for an expression (written by the expression rule).
ALIASES = {"E4": "E4(1)"}

DEFAULT_PREC = 100_000
JSON_SCHEMA = 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qsigns",
                                description="Exact q-expansion toolkit: build "
                                            "forms, lift and transform them, "
                                            "and measure coefficient signs.")
    sub = p.add_subparsers(required=True, metavar="command")

    b = sub.add_parser("build", help="build a form or expression to a file")
    b.add_argument("--form", required=True,
                   help="delta, g, Delta, G11, E4, or an expression string")
    b.add_argument("--prec", type=int, default=DEFAULT_PREC)
    b.add_argument("--allow-large", action="store_true",
                   help="permit prec above %d (slow, memory heavy)" % DEFAULT_PREC)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    l = sub.add_parser("lift", help="Shimura lift at a square-free index")
    l.add_argument("--in", dest="infile", required=True)
    l.add_argument("--t", type=int, required=True)
    l.add_argument("--out", required=True)
    l.set_defaults(func=cmd_lift)

    h = sub.add_parser("hecke", help="apply T(p^2), T(p) or U_m")
    h.add_argument("--in", dest="infile", required=True)
    h.add_argument("--op", choices=("tsq", "tp", "u"), required=True)
    h.add_argument("--p", type=int, required=True,
                   help="the prime (or the index m for --op u)")
    h.add_argument("--out", help="write the transformed sequence here")
    h.add_argument("--verify-eigen", action="store_true")
    h.add_argument("--json", dest="jsonfile",
                   help="write the eigen report here (default stdout)")
    h.set_defaults(func=cmd_hecke)

    s = sub.add_parser("signs", help="positivity tables and sign-change reports")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--stats", default="tot,fund",
                   help="comma list from {tot, fund}")
    s.add_argument("--X-list", dest="xlist", default="10,100,1000,10000,100000")
    s.add_argument("--csv", help="write the table here (default stdout)")
    s.add_argument("--t", type=int, help="also report signs along a(t n^2)")
    s.add_argument("--powers-p", dest="powers_p", type=int,
                   help="with --t: report signs along a(t p^(2m))")
    s.add_argument("--dprime", help="restrict the square-free survey, "
                                    "e.g. \"3:+1,5:-1\"")
    s.add_argument("--json", dest="jsonfile",
                   help="write subsequence reports here (default stdout)")
    s.set_defaults(func=cmd_signs)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--suite", required=True,
                   choices=("plus-space", "recurrence", "bounds", "prop2"))
    v.add_argument("--t", default="1", help="comma list of square-free t")
    v.add_argument("--p", default="3,5,7", help="comma list of primes")
    v.add_argument("--limit", type=int, default=10_000,
                   help="search bound for prop2 witnesses")
    v.add_argument("--json", dest="jsonfile",
                   help="write the report here (default stdout)")
    v.set_defaults(func=cmd_verify)
    return p


def _check_prec(args):
    if args.prec < 1:
        raise ValueError("prec must be positive")
    if args.prec > coeffio.LARGE_PREC_CAP:
        raise ValueError("prec above %d is not supported"
                         % coeffio.LARGE_PREC_CAP)
    if args.prec > DEFAULT_PREC and not args.allow_large:
        raise ValueError("prec %d needs --allow-large" % args.prec)
    if args.prec > DEFAULT_PREC:
        print("warning: prec %d will take minutes and hundreds of MB"
              % args.prec, file=sys.stderr)


def cmd_build(args) -> int:
    _check_prec(args)
    # Resolved at call time through the forms module, so a wrapper put on
    # a named constructor (a tracer, say) sees the call.
    named = {"delta": forms.delta_form, "g": forms.g_form,
             "Delta": forms.ramanujan_delta, "G11": forms.x0_11_form}
    if args.form in named:
        cf = coeffio.CoefficientFile(args.form, named[args.form](args.prec))
    else:
        # An expression is written from its series' integer offset on.
        form, offset = forms.expression_form(
            ALIASES.get(args.form, args.form), args.prec)
        cf = coeffio.CoefficientFile(args.form, form, offset=offset)
    cf.write(args.out)
    return 0


def cmd_lift(args) -> int:
    cf = coeffio.read(args.infile)
    coeffio.CoefficientFile("lift_t%d(%s)" % (args.t, cf.form_id),
                            hecke.shimura_lift(cf.form, args.t),
                            t=args.t).write(args.out)
    return 0


def cmd_hecke(args) -> int:
    if args.jsonfile and not args.verify_eigen:
        raise ValueError("--json needs --verify-eigen")
    if args.verify_eigen and args.op == "u":
        raise ValueError("--verify-eigen needs --op tsq or tp")
    cf = coeffio.read(args.infile)
    f, p = cf.form, args.p
    # Resolved at call time, as in cmd_build.
    operator, image_id = {"tsq": (hecke.t_square_half, "tsq_p%d(%s)"),
                          "tp": (hecke.t_integral, "tp%d(%s)"),
                          "u": (hecke.u_image, "u%d(%s)")}[args.op]
    image = operator(p, f)
    report = (hecke.extract_eigenvalue(f.coeffs, image.coeffs, p, f.k)
              if args.verify_eigen else None)
    if args.out:
        coeffio.CoefficientFile(image_id % (p, cf.form_id),
                                image).write(args.out)
    if report is None:
        return 0
    _emit_json(_eigen_json(cf.form_id, args.op, report), args.jsonfile)
    return 0 if report.is_eigen else 1


def _eigen_json(form_id, op, rep: hecke.EigenReport) -> dict:
    doc = {"schema": JSON_SCHEMA, "kind": "eigen-report", "form": form_id,
           "op": op, "p": rep.p, "lambda": rep.lam, "is_eigen": rep.is_eigen,
           "checked_up_to": rep.checked_up_to,
           "first_violation": rep.first_violation}
    if rep.note:
        doc["note"] = rep.note
    if rep.lam is not None:
        trace, norm, disc_sign = rep.satake
        doc["satake"] = {"trace": trace, "norm": norm, "disc_sign": disc_sign}
        doc["deligne_ok"] = rep.deligne_ok
        doc["elementary_bound_ok"] = rep.elementary_bound_ok
    return doc


def _table_decimals(X: int) -> int:
    return 3 if X <= 1000 else 6


def cmd_signs(args) -> int:
    if args.powers_p is not None and args.t is None:
        raise ValueError("--powers-p needs --t")
    cf = coeffio.read(args.infile)
    form = cf.form
    stats = [s for s in args.stats.split(",") if s]
    for s in stats:
        if s not in ("tot", "fund"):
            raise ValueError("unknown stat %r" % s)

    xs = [int(x) for x in args.xlist.split(",") if x]
    rows = []
    header = ["X"] + ["R_%s" % s for s in stats]
    for X in xs:
        cells = ["%d" % X]
        for s in stats:
            rep = (signs.r_plus_tot(form, X) if s == "tot"
                   else signs.r_plus_fund(form, X))
            cells.append(rep.ratio_rendered(_table_decimals(X)))
        rows.append(cells)
    csv_text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"

    reports = []
    if args.t is not None:
        rep = signs.scan(form, signs.square_class(form, args.t))
        reports.append({"kind": "square-class", "t": args.t, "X": rep.entries,
                        "sign_changes": rep.sign_change_count,
                        "change_positions": rep.change_positions,
                        "witnesses": [{"n": n, "a": a}
                                      for n, a in rep.witnesses]})
        if args.powers_p is not None:
            rep = signs.scan(form, signs.prime_powers(form, args.t,
                                                      args.powers_p))
            reports.append({"kind": "prime-power", "t": args.t,
                            "p": args.powers_p, "entries": rep.entries,
                            "sign_changes": rep.sign_change_count,
                            "change_positions": rep.change_positions})
    if args.dprime:
        primes, eps = _parse_dprime(args.dprime)
        ts, rep = signs.squarefree_sign_survey(
            form, signs.dprime_filter(range(1, form.prec + 1), primes, eps))
        reports.append({"kind": "dprime-survey",
                        "primes": list(primes), "eps": list(eps),
                        "entries": rep.entries,
                        "sign_changes": rep.sign_change_count,
                        "t_values": ts[:50]})
    # Nothing is written until the table and every report are built.
    if args.csv:
        with open(args.csv, "w") as fp:
            fp.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if reports:
        _emit_json({"schema": JSON_SCHEMA, "kind": "sign-reports",
                    "form": cf.form_id, "reports": reports}, args.jsonfile)
    return 0


def _parse_dprime(text: str):
    primes, eps = [], []
    for part in text.split(","):
        ptxt, _, etxt = part.partition(":")
        primes.append(int(ptxt))
        e = int(etxt)
        if e not in (1, -1):
            raise ValueError("eps must be +1 or -1, got %r" % etxt)
        eps.append(e)
    return primes, eps


def cmd_verify(args) -> int:
    cf = coeffio.read(args.infile)
    ts = [int(t) for t in args.t.split(",") if t]
    ps = [int(p) for p in args.p.split(",") if p]
    if args.suite == "plus-space":
        doc, ok = _suite_plus_space(cf)
    elif args.suite == "recurrence":
        doc, ok = _suite_recurrence(cf, ts, ps)
    elif args.suite == "bounds":
        doc, ok = _suite_bounds(cf, ps)
    else:
        doc, ok = _suite_prop2(cf, ps, args.limit)
    _emit_json(doc, args.jsonfile)
    return 0 if ok else 1


def _suite_plus_space(cf):
    f = cf.form
    bad = forms.plus_space_check(f)
    doc = {"schema": JSON_SCHEMA, "suite": "plus-space", "form": cf.form_id,
           "pass": not bad,
           "violations": [{"n": n, "a": f.coeffs[n]} for n in bad[:10]]}
    return doc, not bad


def _suite_recurrence(cf, ts, ps):
    f = cf.form
    checks = []
    ok = True
    for t in ts:
        for p in ps:
            rep = hecke.recurrence_check(f, t, p)
            checks.append({"t": t, "p": p, "pass": rep.ok, "lambda": rep.lam,
                           "max_m": rep.max_m, "violation_m": rep.violation_m,
                           "witnesses": [{"n": n, "a": f.coeffs[n]} for n in
                                         rep.indices[:min(rep.max_m, 2) + 1]]})
            ok = ok and rep.ok
    return {"schema": JSON_SCHEMA, "suite": "recurrence", "form": cf.form_id,
            "pass": ok, "checks": checks}, ok


def _suite_bounds(cf, ps):
    checks = []
    ok = True
    for rep in (hecke.eigen_report(cf.form, p) for p in ps):
        entry = {"p": rep.p, "is_eigen": rep.is_eigen, "lambda": rep.lam}
        if rep.is_eigen:
            entry["deligne_ok"] = rep.deligne_ok
            entry["elementary_bound_ok"] = rep.elementary_bound_ok
        entry["pass"] = (rep.is_eigen and rep.deligne_ok
                         and rep.elementary_bound_ok)
        checks.append(entry)
        ok = ok and entry["pass"]
    return {"schema": JSON_SCHEMA, "suite": "bounds", "form": cf.form_id,
            "pass": ok, "checks": checks}, ok


def _suite_prop2(cf, ps, limit):
    form = cf.form
    checks = []
    ok = True
    for p in ps:
        found = signs.prop2_witnesses(form, p, limit)
        witnesses = [{"eps": e, "sign": s, "n": n,
                      "a": None if n is None else form.coeffs[n]}
                     for (e, s), n in sorted(found.items(), reverse=True)]
        complete = all(n is not None for n in found.values())
        checks.append({"p": p, "pass": complete, "witnesses": witnesses})
        ok = ok and complete
    return {"schema": JSON_SCHEMA, "suite": "prop2", "form": cf.form_id,
            "pass": ok, "limit": limit, "checks": checks}, ok


def _emit_json(doc: dict, path: str | None):
    text = json.dumps(doc, indent=2) + "\n"
    if path:
        with open(path, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
