"""The benchmark's workloads: lists of qsigns commands, each with the
check of its output.  A check returns None or a problem; one that raises
(a missing or malformed output) counts as a problem too.

A workload is planned from a profile (the precisions) and a seeded
random generator.  The seed picks only parameters whose outputs are
checked without a stored digest: Hecke primes and lift indices (checked
against tau), and the E4(1)^2 precision (checked against 480 sigma_7).
Outputs that do not depend on the seed are checked against the digests
in reference.json.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Callable

import checks

PROFILES = {
    # the sizes the benchmark measures
    "full": {"half_prec": 100_000, "Delta_prec": 20_000, "e8_prec": 7_000,
             "xlist": (10, 100, 1000, 10_000, 100_000)},
    # tiny sizes for the self-test
    "tiny": {"half_prec": 2_000, "Delta_prec": 300, "e8_prec": 200,
             "xlist": (10, 100, 1000)},
}

# delta lives in the plus space of weight 13/2 (a(n) = 0 unless
# n = 0, 1 mod 4): square-free t = 1 mod 4 have a(t) != 0.
DELTA_T = (1, 5, 13, 17, 21, 29)
DELTA_P = (3, 5, 7, 11, 13)
G_P = (3, 5, 7, 13)          # good primes for level 44


@dataclass
class Command:
    args: list[str]                     # qsigns arguments
    outputs: tuple[str, ...] = ()       # removed before the command runs
    check: Callable[[], str | None] = lambda: None


@dataclass
class Plan:
    setup: list[Command]
    setup_reps: int
    commands: list[Command]
    # benchmark-side preparation for the checks, run after the set-up
    # timing stops
    prepare: Callable[[], None] = lambda: None
    params: dict = field(default_factory=dict)


def _warmup() -> Command:
    # A tiny build: starts the interpreter, imports qsigns and leaves its
    # bytecode cache warm.
    return Command(["build", "--form", "delta", "--prec", "64",
                    "--out", "warm.txt"], ("warm.txt",))


def _build(work: Path, form: str, prec: int, out: str, digest: str) -> Command:
    return Command(["build", "--form", form, "--prec", str(prec), "--out", out],
                   (out,),
                   lambda: checks.expect_digest(work / out, digest, True))


def _json(work: Path, name: str) -> dict:
    return json.loads((work / name).read_text())


def halfint(work: Path, profile: str, rng) -> Plan:
    prof, ref = PROFILES[profile], checks.load_reference(profile)
    prec = prof["half_prec"]
    return Plan(setup=[_warmup()], setup_reps=9,
                commands=[_build(work, "delta", prec, "delta.txt", ref["delta"]),
                          _build(work, "g", prec, "g.txt", ref["g"])])


def dense(work: Path, profile: str, rng) -> Plan:
    prof, ref = PROFILES[profile], checks.load_reference(profile)
    e8_prec = prof["e8_prec"] - rng.randrange(prof["e8_prec"] // 100 + 1)
    primes = sorted(rng.sample((2, 3, 5, 7, 11, 13), 3))
    tau = checks.tau_table(max(primes))
    sig = checks.sigma7_table(e8_prec)
    want = {0: 1}
    want.update((n, 480 * sig[n]) for n in range(1, e8_prec + 1))

    def check_e8():
        got = checks.read_table(work / "e8.txt")
        if got != want:
            bad = min(n for n in set(got) | set(want)
                      if got.get(n) != want.get(n))
            return "E4(1)^2 at q^%d is %s, 480 sigma_7 gives %s" % (
                bad, got.get(bad), want.get(bad))
        return None

    def check_bounds():
        return _expect_eigen_checks(_json(work, "bounds.json"), tau)

    return Plan(
        setup=[_warmup()], setup_reps=9,
        commands=[
            _build(work, "Delta", prof["Delta_prec"], "Delta.txt", ref["Delta"]),
            Command(["build", "--form", "E4(1)^2", "--prec", str(e8_prec),
                     "--out", "e8.txt"], ("e8.txt",), check_e8),
            Command(["verify", "--in", "Delta.txt", "--suite", "bounds",
                     "--p", ",".join(map(str, primes)), "--json", "bounds.json"],
                    ("bounds.json",), check_bounds)],
        params={"e8_prec": e8_prec, "bounds_p": primes})


def _expect_eigen_checks(doc, tau) -> str | None:
    """A verify report passes, and each eigenvalue it found is tau(p)."""
    if doc.get("pass") is not True:
        return "%s suite did not pass" % doc.get("suite")
    for entry in doc["checks"]:
        if entry["lambda"] != tau[entry["p"]]:
            return "lambda_%d = %s, tau gives %d" % (
                entry["p"], entry["lambda"], tau[entry["p"]])
    return None


def tables(work: Path, profile: str, rng) -> Plan:
    prof, ref = PROFILES[profile], checks.load_reference(profile)
    prec = prof["half_prec"]
    xlist = ",".join(map(str, prof["xlist"]))
    t_rec, t_lift, t_sub = (rng.choice(DELTA_T) for _ in range(3))
    p_rec = sorted(rng.sample(DELTA_P, 2))
    p_bounds = sorted(rng.sample(DELTA_P, 3))
    p_hecke, p_sub = rng.choice(DELTA_P[:3]), rng.choice(DELTA_P[:2])
    p_prop2 = rng.choice(G_P)
    data = {}

    def prepare():
        table = checks.read_table(work / "delta.txt")
        data["a"] = [table.get(n, 0) for n in range(prec + 1)]
        data["tau"] = checks.tau_table(max(isqrt(prec), max(DELTA_P)))

    def check_csv(name, digest, printed):
        return lambda: (checks.expect_digest(work / name, digest, False)
                        or checks.expect_table_cells(work / name, printed))

    def check_eigenvalues(name):
        return lambda: _expect_eigen_checks(_json(work, name), data["tau"])

    def check_prop2():
        doc = _json(work, "prop2.json")
        if doc.get("pass") is not True:
            return "prop2 suite did not pass"
        return None

    def check_hecke():
        doc = _json(work, "eigen.json")
        lam = data["tau"][p_hecke]
        if doc.get("is_eigen") is not True or doc["lambda"] != lam:
            return "T(%d^2) eigen report %r, expected lambda %d" % (
                p_hecke, doc, lam)
        got = checks.read_table(work / "tsq.txt")
        a = data["a"]
        for n in range(1, prec // (p_hecke * p_hecke) + 1):
            if got.get(n, 0) != lam * a[n]:
                return "T(%d^2) delta at q^%d is %s, expected %d" % (
                    p_hecke, n, got.get(n, 0), lam * a[n])
        return None

    def check_lift():
        # For odd n the lift of delta at t is a(t) tau(n).
        got = checks.read_table(work / "lift.txt")
        a, tau = data["a"], data["tau"]
        for n in range(1, isqrt(prec // t_lift) + 1, 2):
            if got.get(n, 0) != a[t_lift] * tau[n]:
                return "lift_t%d A(%d) = %s, expected a(t) tau(n) = %d" % (
                    t_lift, n, got.get(n, 0), a[t_lift] * tau[n])
        return None

    def check_subsequences():
        doc = _json(work, "sub.json")
        a = data["a"]
        X = isqrt(prec // t_sub)
        square = [a[t_sub * n * n] for n in range(1, X + 1)]
        power, idx = [], t_sub
        while idx <= prec:
            power.append(a[idx])
            idx *= p_sub * p_sub
        sq, pp = doc["reports"]
        if (sq["X"], sq["sign_changes"]) != (X, checks.sign_changes(square)):
            return "square-class report %r disagrees" % (
                {k: sq[k] for k in ("t", "X", "sign_changes")},)
        if (pp["entries"], pp["sign_changes"]) != (
                len(power), checks.sign_changes(power)):
            return "prime-power report %r disagrees" % (
                {k: pp[k] for k in ("t", "p", "entries", "sign_changes")},)
        return None

    commands = [
        Command(["signs", "--in", "delta.txt", "--X-list", xlist,
                 "--csv", "delta.csv"], ("delta.csv",),
                check_csv("delta.csv", ref["delta_csv"], checks.TABLE1)),
        Command(["signs", "--in", "g.txt", "--X-list", xlist,
                 "--csv", "g.csv"], ("g.csv",),
                check_csv("g.csv", ref["g_csv"], checks.TABLE2)),
        Command(["verify", "--in", "delta.txt", "--suite", "recurrence",
                 "--t", str(t_rec), "--p", ",".join(map(str, p_rec)),
                 "--json", "recurrence.json"], ("recurrence.json",),
                check_eigenvalues("recurrence.json")),
        Command(["verify", "--in", "delta.txt", "--suite", "bounds",
                 "--p", ",".join(map(str, p_bounds)), "--json", "bounds.json"],
                ("bounds.json",), check_eigenvalues("bounds.json")),
        Command(["verify", "--in", "g.txt", "--suite", "prop2",
                 "--p", str(p_prop2), "--json", "prop2.json"], ("prop2.json",),
                check_prop2),
        Command(["hecke", "--in", "delta.txt", "--op", "tsq",
                 "--p", str(p_hecke), "--verify-eigen", "--out", "tsq.txt",
                 "--json", "eigen.json"], ("tsq.txt", "eigen.json"),
                check_hecke),
        Command(["lift", "--in", "delta.txt", "--t", str(t_lift),
                 "--out", "lift.txt"], ("lift.txt",), check_lift),
        Command(["signs", "--in", "delta.txt", "--X-list", "100",
                 "--t", str(t_sub), "--powers-p", str(p_sub),
                 "--json", "sub.json"], ("sub.json",), check_subsequences),
    ]
    return Plan(
        setup=[_warmup(),
               _build(work, "delta", prec, "delta.txt", ref["delta"]),
               _build(work, "g", prec, "g.txt", ref["g"])],
        setup_reps=2, commands=commands, prepare=prepare,
        params={"t_rec": t_rec, "p_rec": p_rec, "p_bounds": p_bounds,
                "p_prop2": p_prop2, "p_hecke": p_hecke, "t_lift": t_lift,
                "t_sub": t_sub, "p_sub": p_sub})


WORKLOADS = {"halfint": halfint, "dense": dense, "tables": tables}
