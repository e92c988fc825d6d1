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

from . import coeffio, forms, lazy_submodule

# Run on first use: a sign table never runs hecke, and a build runs
# neither.
hecke = lazy_submodule("hecke")
signs = lazy_submodule("signs")

DEFAULT_PREC = 100_000
JSON_SCHEMA = 1

# --stats name -> signs mask, looked up at call time as in cmd_build.
STATS = {"tot": "prefix", "fund": "fundamental"}


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
                   help="%s, or an expression string"
                        % ", ".join(forms.NAMED))
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
    s.add_argument("--stats", default=",".join(STATS),
                   help="comma list from {%s}" % ", ".join(STATS))
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
                   choices=SUITES)
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
    if args.prec > forms.LARGE_PREC_CAP:
        raise ValueError("prec above %d is not supported"
                         % forms.LARGE_PREC_CAP)
    if args.prec > DEFAULT_PREC and not args.allow_large:
        raise ValueError("prec %d needs --allow-large" % args.prec)
    if args.prec > DEFAULT_PREC:
        print("warning: prec %d is slow and memory heavy, see README"
              % args.prec, file=sys.stderr)


def cmd_build(args) -> int:
    _check_prec(args)
    # delta and g go through their constructors, looked up at call time
    # through the forms module, because benchmarks/selftest.py asserts
    # the spans benchmarks/tracer.py puts on them.  ROADMAP item 8
    # removes both constructors, and with them this dict.
    named = {"delta": forms.delta_form, "g": forms.g_form}
    if args.form in named:
        form = named[args.form](args.prec)
    else:
        form = forms.expression_form(forms.NAMED.get(args.form, args.form),
                                     args.prec)
    coeffio.CoefficientFile(args.form, form).write(args.out)
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


def _comma_list(text: str, option: str) -> list[str]:
    """The non-empty items of a comma list; a list with none is refused."""
    items = [x for x in text.split(",") if x]
    if not items:
        raise ValueError("%s needs at least one value" % option)
    return items


def _int_list(text: str, option: str) -> list[int]:
    """The items of a comma list as ints."""
    return [_int(x, option) for x in _comma_list(text, option)]


def _int(text: str, option: str) -> int:
    """text as an int; otherwise refused under the option's name."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s: %r is not an integer" % (option, text)) from None


def cmd_signs(args) -> int:
    if args.powers_p is not None and args.t is None:
        raise ValueError("--powers-p needs --t")
    cf = coeffio.read(args.infile)
    form = cf.form
    stats = _comma_list(args.stats, "--stats")
    for s in stats:
        if s not in STATS:
            raise ValueError("unknown stat %r" % s)
    xs = _int_list(args.xlist, "--X-list")
    if min(xs) < 1:
        raise ValueError("--X-list: X must be positive, got %d" % min(xs))
    sets = [getattr(signs, STATS[s])(form, max(xs)) for s in stats]
    rows = [["X"] + ["R_%s" % s for s in stats]]
    tallies = [signs.counts(form, idx, xs) for idx in sets]
    for X, row in zip(xs, zip(*tallies)):
        if any(n_pos + n_neg == 0 for n_pos, n_neg in row):
            raise ValueError("no nonzero entries up to X=%d" % X)
        rows.append(["%d" % X] + [
            signs.render_ratio(n_pos, n_pos + n_neg, 3 if X <= 1000 else 6)
            for n_pos, n_neg in row])
    csv_text = "".join(",".join(r) + "\n" for r in rows)

    reports = []
    if args.t is not None:
        rep = signs.scan(form, signs.square_class(form, args.t))
        reports.append({"kind": "square-class", "t": args.t, "X": rep.entries,
                        "sign_changes": rep.sign_change_count,
                        "change_positions": rep.change_positions,
                        "witnesses": [_witness(form, n)
                                      for n, _ in rep.witnesses]})
        if args.powers_p is not None:
            rep = signs.scan(form, signs.prime_powers(form, args.t,
                                                      args.powers_p))
            reports.append({"kind": "prime-power", "t": args.t,
                            "p": args.powers_p, "entries": rep.entries,
                            "sign_changes": rep.sign_change_count,
                            "change_positions": rep.change_positions})
    if args.dprime is not None:
        primes, eps = _parse_dprime(args.dprime)
        first = signs.first_nonzero(form, signs.dprime_filter(
            range(1, form.prec + 1), primes, eps))
        rep = signs.scan(form, first.values())
        reports.append({"kind": "dprime-survey",
                        "primes": list(primes), "eps": list(eps),
                        "entries": rep.entries,
                        "sign_changes": rep.sign_change_count,
                        "t_values": list(first)[:50]})
    # Nothing is written until the table and every report are built.
    _emit(csv_text, args.csv)
    if reports:
        _emit_json({"schema": JSON_SCHEMA, "kind": "sign-reports",
                    "form": cf.form_id, "reports": reports}, args.jsonfile)
    return 0


def _parse_dprime(text: str):
    primes, eps = [], []
    for part in _comma_list(text, "--dprime"):
        ptxt, colon, etxt = part.partition(":")
        if not colon:
            raise ValueError("--dprime: %r is not p:eps" % part)
        primes.append(_int(ptxt, "--dprime"))
        e = _int(etxt, "--dprime")
        if e not in (1, -1):
            raise ValueError("eps must be +1 or -1, got %r" % etxt)
        eps.append(e)
    return primes, eps


def cmd_verify(args) -> int:
    cf = coeffio.read(args.infile)
    ts = _int_list(args.t, "--t")
    ps = _int_list(args.p, "--p")
    ok, fields = SUITES[args.suite](cf.form, ts, ps, args.limit)
    _emit_json({"schema": JSON_SCHEMA, "suite": args.suite, "form": cf.form_id,
                "pass": ok, **fields}, args.jsonfile)
    return 0 if ok else 1


def _suite_plus_space(f, ts, ps, limit):
    bad = forms.plus_space_check(f)
    return not bad, {"violations": [_witness(f, n) for n in bad[:10]]}


def _suite_recurrence(f, ts, ps, limit):
    # The recurrence along t p^(2m) holds exactly when f is a T(p^2)
    # eigenform (see hecke), so each prime's verdict serves every t.
    verdicts = [hecke.extract_eigenvalue(
        f.coeffs, hecke.t_square_half(p, f).coeffs, p, f.k) for p in ps]
    checks = []
    for t in ts:
        for rep in verdicts:
            indices = signs.prime_powers(f, t, rep.p)
            max_m = len(indices) - 1 if rep.is_eigen else 0
            entry = {"t": t, "p": rep.p, "pass": rep.is_eigen,
                     "lambda": rep.lam, "max_m": max_m, "violation_m": None,
                     "witnesses": [_witness(f, n)
                                   for n in indices[:min(max_m, 2) + 1]]}
            if not rep.is_eigen:
                entry["note"] = "not a T(p^2) eigenform: %s" % (
                    rep.note or "violation at n=%s" % rep.first_violation)
            checks.append(entry)
    return _every_check(checks)


def _suite_bounds(f, ts, ps, limit):
    checks = []
    for rep in (hecke.eigen_report(f, p) for p in ps):
        entry = {"p": rep.p, "is_eigen": rep.is_eigen, "lambda": rep.lam}
        if rep.is_eigen:
            entry["deligne_ok"] = rep.deligne_ok
            entry["elementary_bound_ok"] = rep.elementary_bound_ok
        entry["pass"] = (rep.is_eigen and rep.deligne_ok
                         and rep.elementary_bound_ok)
        checks.append(entry)
    return _every_check(checks)


def _suite_prop2(f, ts, ps, limit):
    checks = []
    for p in ps:
        found = sorted(signs.prop2_witnesses(f, p, limit).items(), reverse=True)
        checks.append({"p": p, "pass": all(n is not None for _, n in found),
                       "witnesses": [{"eps": e, "sign": s, **_witness(f, n)}
                                     for (e, s), n in found]})
    return _every_check(checks, limit=limit)


def _witness(f, n) -> dict:
    """An index and its coefficient; no index gives a null coefficient."""
    return {"n": n, "a": None if n is None else f.coeffs[n]}


def _every_check(checks, **fields):
    """A suite of checks passes when every check passes."""
    return all(c["pass"] for c in checks), {**fields, "checks": checks}


# Each suite returns its pass flag and the report fields after "pass".
SUITES = {"plus-space": _suite_plus_space, "recurrence": _suite_recurrence,
          "bounds": _suite_bounds, "prop2": _suite_prop2}


def _emit_json(doc: dict, path: str | None):
    _emit(json.dumps(doc, indent=2) + "\n", path)


def _emit(text: str, path: str | None):
    if path:
        coeffio.write_text(path, text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
