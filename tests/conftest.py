import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsigns
from qsigns.cli import main
from qsigns.forms import NAMED, delta_form, expression_form, g_form

# A new interpreter finds the qsigns this one imported, from a checkout's
# src or from an installed copy alike.  It buffers stdout as a console
# run does: PYTHONUNBUFFERED, which some hosts set, would hide an output
# never flushed.
QSIGNS_PATH = dict(os.environ,
                   PYTHONPATH=str(Path(qsigns.__file__).resolve().parents[1]))
QSIGNS_PATH.pop("PYTHONUNBUFFERED", None)


def cli_process(*argv, timeout=120, text=True):
    """The finished process of one qsigns command in a new interpreter."""
    return subprocess.run([sys.executable, "-m", "qsigns", *argv],
                          env=QSIGNS_PATH, capture_output=True, text=text,
                          timeout=timeout)


def fresh_python(script, cwd=None, timeout=60):
    """What script prints in a new interpreter that finds qsigns."""
    proc = subprocess.run([sys.executable, "-c", script], env=QSIGNS_PATH,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def fresh_import(script, cwd=None):
    """The modules a new interpreter holds after running script (an
    import, say) but did not hold at start-up."""
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "%s\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n"
             % script)
    return json.loads(fresh_python(probe, cwd))


@pytest.fixture(scope="session")
def built(tmp_path_factory):
    """The path of form's file at prec, built on first use; tests read it
    and never write it."""
    work, paths = tmp_path_factory.mktemp("built"), {}

    def path(form, prec):
        if (form, prec) not in paths:
            out = work / ("%d.txt" % len(paths))
            assert main(["build", "--form", form, "--prec", str(prec),
                         "--out", str(out)]) == 0
            paths[form, prec] = out
        return paths[form, prec]
    return path


@pytest.fixture(scope="session")
def delta3k():
    return delta_form(3000)


@pytest.fixture(scope="session")
def g3k():
    return g_form(3000)


@pytest.fixture(scope="session")
def delta_wt12():
    return expression_form(NAMED["Delta"], 300)


@pytest.fixture(scope="session")
def g11_wt2():
    return expression_form(NAMED["G11"], 20)
