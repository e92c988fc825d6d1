"""Console checks: the bytes each command writes, against the digests of
earlier builds, and the commands refused with exit 2 and no file.

A file that several checks read is built once, by conftest's `built`.
Every check runs on the qsigns this interpreter imports, so the same
tests check a checkout's src and an installed copy.
"""

import errno
import hashlib
import json
import os
import subprocess
import sys

import pytest

from qsigns.cli import main

from conftest import QSIGNS_PATH, cli_process, fresh_python
from oracles import poly_mul

# Two more constructions of delta and g.  Delta's: theta and psi on
# M_{13/2}(Gamma_0(4)), five row passes on 1-, 2- and 4-byte words.  g's:
# the theta series of two ternary forms (Gross 1987), whose file declares
# another level, so only the bodies are compared.
DELTA_BY_PSI = ("theta(1)*psi(2)^4*(theta(1)^8 - 18*theta(1)^4*psi(2)^4"
                " + 32*psi(2)^8)")
A44 = "(theta(44)*theta(132) + (theta(11)-theta(44))*(theta(33)-theta(132)))"
A132 = ("(theta(132)*theta(396) + (theta(33)-theta(132))"
        "*(theta(99)-theta(396)))")
G_BY_TERNARY = ("1/4*U(3, 2*%s*theta(9) + (%s - %s)*(theta(1) - theta(9)))"
                " - 1/2*theta(11)*(theta(4)*theta(44) + (theta(1)-theta(4))"
                "*(theta(11)-theta(44)))" % (A132, A44, A132))


def digest(path):
    """The sha256 of a coefficient file's body (its lines not starting
    with "#"), or of a table's or a report's whole text."""
    data = path.read_bytes()
    if data.startswith(b"# coeffs"):
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"#"))
    return hashlib.sha256(data).hexdigest()


def holds(path, want):
    """A digest to match, or a tuple of lines the file must hold."""
    if isinstance(want, tuple):
        return set(want) <= set(path.read_text().splitlines())
    return digest(path) == want


@pytest.mark.parametrize("form, prec, want", [
    # The row pass on 1-byte words (g at 200), 7-byte slots widened to
    # 8-byte words (delta at 2000), 9-byte slots (delta at 20 000),
    # 3-byte slots widened to 4-byte words (theta^5) and 10-byte slots
    # (delta at 10^5); U_4 from 4-sections, whose section product takes
    # 2-byte words (g at 2000 and at 10^5).
    ("g", 200, "27897d168b7c7951b8510d72c5b7334b20151bff2781d47e86b73bd851f8f1db"),
    ("delta", 2000,
     "3e975f1d6189283e26f404a31db3b40a938c1b98be07354216e5d6a078e11de2"),
    ("delta", 20000,
     "93188f3d7d2e5364fd483e40ad2db999a64c7b2fdf35da2f8ac8859a8a8686df"),
    ("theta(1)^5", 1000,
     "a18dd07ca95255b8c7dbf8cb18003e8717ab4a918bcd0676ebeb8992a74eb009"),
    ("delta", 100000,
     "9645e8fe3e684fbf3fb711a7cde147c9dee4eea658b8b3f9dad27f84ada25335"),
    ("g", 2000, "c21201f81a019a806337ff9c75500357a107c44b4349391bb70554a34116b4b1"),
    ("g", 100000,
     "2aac2b04523d00424305aa080576a064210c7c7dea7b21ad1e0aeb64f4897789"),
    (DELTA_BY_PSI, 2000,
     "3e975f1d6189283e26f404a31db3b40a938c1b98be07354216e5d6a078e11de2"),
    (G_BY_TERNARY, 2000,
     "c21201f81a019a806337ff9c75500357a107c44b4349391bb70554a34116b4b1"),
    # The lacunary generators, Jacobi's eta^3 and Delta's three squarings
    # on the row pass at 300, and G11's product on the NTT at 20 000.
    ("thetapsi(-3, 1)", 100, ("# weight: 3/2", "# level: 36")),
    ("thetapsi(-3, 1)", 2000,
     "99961984d17b29e0a68e2f39858b6777f38f858e6c6bfddf2357e067849a6ae9"),
    ("G11", 2000, "ee839926aa2a089e448c5a33545f39b820befda306ca2b61f593229f1ef15064"),
    ("G11", 20000,
     "b0d2d90da947528f608068e16cc36a98911e6e264da84c245c387271ba8968ac"),
    ("Delta", 300, "a865755886fe5d707913dcb87d5872c4fe49ae9972036d896d413a0cb078d187"),
    # E4(1)^2's one product on the decimal NTT at 3000; the packed row
    # pass on a stride-4 operand with negative row terms and coefficients
    # of about 90 bits (11- and 16-byte slots).
    ("E4(1)^2", 3000,
     "441cb119f64089fbb5c56557264c719a3fc605e6bd9858f6bfaca8e680164478"),
    ("E4(4)^3*eta(8)^3", 3000,
     "b9a80fac3b43910880762ae88350823d8c8d97571038c7b9d9553ede2cb59e9d"),
    # A sum of products is one integer linear combination built into one
    # list: two row-pass products on the stride 4, one pass; the same on
    # strides 4 and 2, one pass each; and a sum with a pair loop, two
    # row-pass terms sharing a pass, a decimal-NTT product and an offset
    # of 2 on one term.
    ("2*theta(1)*D(E4(4)) - 3*D(theta(1))*E4(4)", 3000,
     "312d6a0bee9575b5245fbde0aaed9d11ad25ecf8864e27b5872a5a30ec3d1c6c"),
    ("2*theta(1)*D(E4(4)) - 3*D(theta(1))*E4(2)", 3000,
     "852c0c478ee23c5c7e6517af30467e6bc8ac3b35038bf885a4689077e59cdfed"),
    ("theta(1)*thetapsi(-4, 1) - 2*theta(1)*theta(1)^3"
     " + 3*theta(1)^2*theta(2)^2 - eta(24)^2*theta(1)^2", 3000,
     "20fad49bbcbc63577c5b51d7c5ea1ba7f921360565398c29934bde9bf198b028"),
], ids=["g-200", "delta-2000", "delta-20000", "theta5-1000", "delta-1e5",
        "g-2000", "g-1e5", "delta-psi-2000", "g-ternary-2000", "psi-100",
        "psi-2000", "G11-2000", "G11-20000", "Delta-300", "E8-3000",
        "E4eta-3000", "fused4-3000", "fused42-3000", "paths-3000"])
def test_build(built, form, prec, want):
    assert holds(built(form, prec), want)


@pytest.mark.parametrize("form, prec, argv, want", [
    # E4's U_3 keeps its constant term; delta's takes the character
    # (192/.) mod 12.
    ("E4", 30, ["hecke", "--op", "u", "--p", "3", "--out"],
     ("# level: 3", "# offset: 0", "0\t1")),
    ("delta", 2000, ["hecke", "--op", "u", "--p", "3", "--out"],
     ("# character: kronecker:192/mod:12",)),
    ("delta", 2000, ["hecke", "--op", "u", "--p", "3", "--out"],
     "ab81c4fa5cf52074cfd56f701b2e20a6407da2a4c50ed00b2946a7462c999e25"),
    # T(p) and T(p^2), which share U_m's image rule.
    ("Delta", 300, ["hecke", "--op", "tp", "--p", "5", "--out"],
     "e9d4123c4bbcd3362f5b429a570600c1a29986e5cbeb20e1be5e528492fb9dab"),
    ("delta", 2000, ["hecke", "--op", "tsq", "--p", "3", "--out"],
     "5a0852edc2a180f968f6520b2ff2b62bff97b61a63d7ad6c8120552a70aee676"),
    # The Shimura lift, one Dirichlet convolution of chi_t(d) d^(k-1)
    # with a(t m^2).
    ("delta", 2000, ["lift", "--t", "1", "--out"],
     "004afff930d95d3b73c1513bea0bdf1033366fc7c21dab9ef3405ae31354454e"),
    ("delta", 2000, ["lift", "--t", "5", "--out"],
     "84af4111a2a0e97faa48eb5a99009af99cdb31477bd3fdc17f65d1294fd66f7a"),
    ("g", 2000, ["lift", "--t", "3", "--out"],
     "c7f0166e1b83b22ec2c37cc83c544070c8a889f1ffbd57fe27fe941da9c6bd01"),
    ("delta", 2000, ["verify", "--suite", "recurrence", "--t", "1,5",
                     "--p", "3,5", "--json"],
     "9020ba3b23cc73b78b86a9526d256f2b8a95844341f3b2cf798e36c3387786d2"),
    # The sign tables at X = 10..10^5, and of an unsorted X-list, taken
    # while each X rebuilt its index sets.
    ("delta", 100000, ["signs", "--X-list", "10,100,1000,10000,100000",
                       "--csv"],
     "c008244bd19925d07617cfde0791a54f67a074711995d672a71a3ace2a8ce632"),
    ("g", 100000, ["signs", "--X-list", "10,100,1000,10000,100000", "--csv"],
     "55154e9dd13e0c89403480fffb3de816fd8042261840a125fa0d2c758a6a2b11"),
    ("delta", 2000, ["signs", "--X-list", "2000,10,100,1000", "--csv"],
     "dd95e1309cc5ab33ceaa934ed4a71ba7706a5b316473a1ce052b352b0e6c9e13"),
    ("g", 2000, ["signs", "--X-list", "2000,10,100,1000", "--csv"],
     "d7a0f1fbeb2ef85dc8585f6d28575bd5b0193576ded70a0457be38853cf0c49f"),
], ids=["u3-E4-30", "u3-delta-character", "u3-delta", "tp5-Delta",
        "tsq3-delta", "lift1-delta", "lift5-delta", "lift3-g",
        "recurrence-delta", "signs-delta-1e5", "signs-g-1e5",
        "signs-delta-2000", "signs-g-2000"])
def test_read_command(built, tmp_path, form, prec, argv, want):
    out = tmp_path / "out"
    assert main([argv[0], "--in", str(built(form, prec)), *argv[1:],
                 str(out)]) == 0
    assert holds(out, want)


@pytest.mark.parametrize("argv, lambdas", [
    (["--suite", "bounds", "--p", "3,5,7"], [252, 4830, -16744]),
    (["--suite", "recurrence", "--t", "1,5", "--p", "3,5"], [252, 4830]),
], ids=["bounds", "recurrence"])
def test_verify_reads_tau(built, tmp_path, argv, lambdas):
    # delta's T(p^2) eigenvalues are tau(p), within Deligne's bound.
    out = tmp_path / "report.json"
    assert main(["verify", "--in", str(built("delta", 2000)), *argv,
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert [(c["p"], c["lambda"], c["pass"]) for c in report["checks"]] == [
        (p, lam, True) for p, lam in zip((3, 5, 7), lambdas)]


def test_delta_is_tau_on_the_decimal_ntt(built):
    # Delta's two dense squarings at 2000 take the decimal NTT: against
    # tau(n), the coefficients of q times the 24th power of Euler's
    # pentagonal series.
    euler = [0] * 2000
    for j in range(-40, 41):
        if j * (3 * j - 1) // 2 < 2000:
            euler[j * (3 * j - 1) // 2] = -1 if j % 2 else 1
    power = [1]
    for _ in range(24):
        power = poly_mul(euler, power, 2000)
    lines = built("Delta", 2000).read_text().splitlines()
    assert [line for line in lines if line[0] != "#"] == [
        "%d\t%d" % (n + 1, tau) for n, tau in enumerate(power) if tau]


@pytest.mark.parametrize("a, b, skipped", [
    ("1/3*theta(1) + 2/3*theta(1)", "theta(1)", "#"),
    # A sum of 400 terms, the depth bound itself, builds on every Python
    # version; a power adds no node, so a sum of 400 cubes builds too.
    (" + ".join(["theta(1)"] * 400), "400*theta(1)", "# form:"),
    (" + ".join(["theta(1)^3"] * 400), "400*theta(1)^3", "# form:"),
], ids=["sum", "sum400", "cubes"])
def test_two_expressions_write_one_file(tmp_path, a, b, skipped):
    # Each build in its own interpreter, as a console run has it.
    files = []
    for form, path in ((a, tmp_path / "a.txt"), (b, tmp_path / "b.txt")):
        proc = cli_process("build", "--form", form, "--prec", "100",
                           "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        files.append([line for line in path.read_text().splitlines()
                      if not line.startswith(skipped)])
    assert files[0] == files[1]


@pytest.mark.parametrize("argv", [
    # Refused before any series is built: a working precision of 10^11
    # positions at the default prec, and weight 3/2 on level 114, which
    # 4 does not divide.
    ["build", "--form", "U(1000, U(1000, theta(1)))", "--out"],
    ["build", "--form", "eta(2)*eta(3)*eta(19)", "--prec", "100000", "--out"],
], ids=["working-precision", "level"])
def test_refused(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 2
    assert not out.exists()


def test_a_prime_past_the_exact_test_is_refused_at_once(built, tmp_path):
    # 10^30 + 57 is past the exact primality test's bound: exit 2 within
    # 20 s, and no table.
    out = tmp_path / "out.csv"
    proc = cli_process("signs", "--in", str(built("delta", 2000)),
                       "--X-list", "10", "--t", "1", "--powers-p",
                       str(10 ** 30 + 57), "--csv", str(out), timeout=20)
    assert proc.returncode == 2 and not out.exists()


@pytest.mark.parametrize("form, argv, option, code", [
    ("delta", ["signs", "--X-list", "10,100,1000,2000"], "--csv", 0),
    ("delta", ["verify", "--suite", "bounds", "--p", "3,5,7"], "--json", 0),
    ("thetapsi(-3, 1)", ["hecke", "--op", "tsq", "--p", "5",
                         "--verify-eigen"], "--json", 1),
    ("delta", ["signs", "--X-list", "10", "--t", "x"], "--csv", 2),
], ids=["signs", "verify", "eigen-fails", "refused"])
def test_a_console_run_writes_what_main_writes(built, capsys, tmp_path, form,
                                               argv, option, code):
    # A command's stdout through a pipe holds, byte for byte, the file its
    # option writes: run() flushes the buffered stdout before os._exit.
    # Its exit code and stderr are main's.
    args = [argv[0], "--in", str(built(form, 2000)), *argv[1:]]
    out = tmp_path / "out"
    assert main([*args, option, str(out)]) == code
    proc = cli_process(*args, text=False)
    assert proc.returncode == code
    assert proc.stdout == (out.read_bytes() if code < 2 else b"")
    assert proc.stderr == capsys.readouterr().err.encode()


# recurrence along 14 square classes writes about 12 KB, more than
# stdout buffers, so its write fails inside main.
SQUARE_FREE = "1,2,3,5,6,7,10,11,13,14,15,17,19,21"


@pytest.mark.parametrize("redirect, argv, errnum", [
    ("> /dev/full", ["signs", "--X-list", "10"], errno.ENOSPC),
    ("> /dev/full", ["verify", "--suite", "recurrence", "--t", SQUARE_FREE],
     errno.ENOSPC),
    ("", ["signs", "--X-list", "10"], errno.EPIPE),
    (">&-", ["signs", "--X-list", "10"], None),
], ids=["full", "full-large", "no-reader", "closed"])
def test_a_stdout_that_cannot_be_written_exits_2_in_one_line(built, redirect,
                                                             argv, errnum):
    # As a shell gives it: a full device, a pipe whose reader has gone
    # (`| head -c 0`) and a closed descriptor.
    reader, writer = os.pipe()
    os.close(reader)
    command = [sys.executable, "-m", "qsigns", argv[0],
               "--in", str(built("delta", 2000)), *argv[1:]]
    with os.fdopen(writer, "wb") as pipe:
        proc = subprocess.run(["sh", "-c", 'exec "$@" ' + redirect, "sh",
                               *command], env=QSIGNS_PATH, stdout=pipe,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    reason = ("standard output is closed" if errnum is None
              else "[Errno %d] %s" % (errnum, os.strerror(errnum)))
    assert (proc.returncode, proc.stderr) == (2, "error: %s\n" % reason)


def test_no_command_leaves_a_file_open(tmp_path):
    # run() ends the process by os._exit, which would drop the bytes a
    # file left open still buffers.  Every command, run through main,
    # closes each file it opens, on success and on failure alike.
    main(["build", "--form", "delta", "--prec", "300",
          "--out", str(tmp_path / "d.txt")])
    main(["build", "--form", "g", "--prec", "300",
          "--out", str(tmp_path / "g.txt")])
    (tmp_path / "cut.txt").write_text(
        (tmp_path / "d.txt").read_text()[:-5])
    d, full = ["--in", "d.txt"], "/dev/full"
    commands = [
        ["build", "--form", "delta", "--prec", "100", "--out", "b.txt"],
        ["build", "--form", "theta(1)^3", "--prec", "100", "--out", "e.txt"],
        ["build", "--form", "theta(1)", "--prec", "100", "--out", full],
        ["lift", *d, "--t", "1", "--out", "lift.txt"],
        ["hecke", *d, "--op", "tsq", "--p", "3", "--out", "tsq.txt",
         "--verify-eigen", "--json", "eigen.json"],
        ["hecke", "--in", "lift.txt", "--op", "tp", "--p", "3",
         "--verify-eigen"],
        ["hecke", *d, "--op", "u", "--p", "3", "--out", "u.txt"],
        ["signs", *d, "--X-list", "10,100", "--t", "1", "--powers-p", "3",
         "--csv", "t.csv", "--json", "sub.json"],
        ["signs", *d, "--X-list", "10,100"],
        ["signs", *d, "--X-list", "10", "--csv", full],
        ["signs", "--in", "cut.txt", "--X-list", "10"],
        ["signs", "--in", "missing.txt", "--X-list", "10"],
        ["verify", *d, "--suite", "plus-space", "--json", "plus.json"],
        ["verify", *d, "--suite", "recurrence", "--p", "3"],
        ["verify", *d, "--suite", "bounds", "--p", "3,5", "--json", full],
        ["verify", "--in", "g.txt", "--suite", "prop2", "--p", "3",
         "--json", "prop2.json"],
    ]
    script = ("import gc, io, json, sys, warnings\n"
              "import qsigns.cli\n"
              "def open_files():\n"
              "    gc.collect()\n"
              "    return {id(o): repr(o) for o in gc.get_objects()\n"
              "            if isinstance(o, io.IOBase) and not o.closed}\n"
              "sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
              "before = open_files()\n"
              "with warnings.catch_warnings(record=True) as caught:\n"
              "    warnings.simplefilter('always', ResourceWarning)\n"
              "    codes = [qsigns.cli.main(argv) for argv in %r]\n"
              "    left = [r for i, r in open_files().items()"
              " if i not in before]\n"
              "print(json.dumps([codes, left, [str(w.message) for w in caught"
              " if w.category is ResourceWarning]]), file=sys.__stdout__)\n"
              % (commands,))
    codes, left, warned = json.loads(fresh_python(script, cwd=tmp_path))
    assert codes == [0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 2, 0]
    assert (left, warned) == ([], [])
