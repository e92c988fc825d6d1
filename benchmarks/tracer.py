"""Run one qsigns command with spans around the public functions of its
modules, and write the spans to a JSON file.

    python3 benchmarks/tracer.py SPANS.json QSIGNS_ARG...

qsigns itself is not edited.  After importing qsigns.cli, every public
module-level function of each qsigns module (and the public methods of
coeffio's file class, where serialize lives) is replaced by a recording
wrapper under every name bound to it, so from-imports such as cli's
delta_form or signs' kronecker are traced too.  arith functions are only
counted: a span around each of their 10^5 calls per scan would swamp
the run.

A span records its name, parent, start, duration and self time (the
duration minus its child spans).  Operand statistics (the product path,
its coefficient operations and the result's bit length) are computed
outside the timed interval, and that time is also removed from every
enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from bisect import bisect_left
from fractions import Fraction

MODULES = ("arith", "qseries", "forms", "formspec", "coeffio", "signs",
           "hecke", "cli")
COUNT_ONLY = ("arith",)
METHOD_MODULES = ("coeffio",)


def _bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return c.bit_length()


def _max_bits(series) -> int:
    return max((_bits(c) for _, c in series.pairs()), default=0)


def _mul_before(args):
    """Product path and multiply-adds of qseries.mul, from the operands'
    public density, prec and pairs (computed, not counted in the kernel)."""
    a, b = args
    prec = min(a.prec, b.prec)
    if a.density == "sparse" and b.density == "sparse":
        if a.nnz > b.nnz:
            a, b = b, a
        bidx = [j for j, _ in b.pairs()]
        ops = sum(bisect_left(bidx, prec - i) for i, _ in a.pairs() if i < prec)
        return {"path": "ss", "coeff_ops": ops}
    if a.density == "dense" and b.density == "dense":
        ops = sum(prec - i for i, _ in a.pairs() if i < prec)
        return {"path": "dd", "coeff_ops": ops}
    sparse = a if a.density == "sparse" else b
    ops = sum(prec - i for i, _ in sparse.pairs() if i < prec)
    return {"path": "sd", "coeff_ops": ops}


def _mul_after(stats, args, result):
    stats["max_bits"] = _max_bits(result)
    return stats


def _u_op_after(stats, args, result):
    return {"in_prec": args[1].prec, "out_prec": result.prec}


def _parse_after(stats, args, result):
    return {"bytes": len(args[0])}


def _serialize_after(stats, args, result):
    return {"bytes": len(result)}


STATS = {"qseries.mul": (_mul_before, _mul_after),
         "qseries.u_op": (None, _u_op_after),
         "coeffio.parse": (None, _parse_after),
         "coeffio.serialize": (None, _serialize_after)}


class Recorder:
    """Spans kept in memory; written once when the command ends."""

    def __init__(self):
        self.spans = []       # [name, parent, start, dur, self, stats]
        self.stack = []       # open frames: [index, child_s, excluded_s]
        self.counters = {}
        self.covered_s = 0.0  # time inside outermost non-cli spans
        self.layer_depth = 0  # open non-cli spans

    def span(self, name: str, fn):
        before, after = STATS.get(name, (None, None))
        in_layer = not name.startswith("cli.")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_pre = clock()
            stats = before(args) if before else None
            index = len(self.spans)
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append(None)
            frame = [index, 0.0, 0.0]
            self.stack.append(frame)
            self.layer_depth += in_layer
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.layer_depth -= in_layer
                dur = t1 - t0 - frame[2]
                self.spans[index] = [name, parent, t0, dur, dur - frame[1],
                                     stats]
                if in_layer and not self.layer_depth:
                    self.covered_s += dur
            if after:
                self.spans[index][5] = after(stats, args, result)
            if self.stack:
                outer = self.stack[-1]
                outer[1] += dur
                outer[2] += frame[2] + (t0 - t_pre) + (clock() - t1)
            return result

        return wrapper

    def count(self, name: str, fn):
        calls = self.counters[name] = itertools.count()
        tick = calls.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict:
        # count() starts at 0, so the next value is the number of calls.
        return {name: next(c) for name, c in self.counters.items()}


def install(recorder: Recorder) -> None:
    """Replace every traced function under every name bound to it."""
    import qsigns.cli  # noqa: F401  (imports every module below)

    mods = {m: sys.modules["qsigns." + m] for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__ and id(obj) not in wrapped):
                label = "%s.%s" % (short, obj.__name__)
                make = recorder.count if short in COUNT_ONLY else recorder.span
                wrapped[id(obj)] = make(label, obj)
        if short in METHOD_MODULES:
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    for name, obj in list(vars(cls).items()):
                        if inspect.isfunction(obj) and not name.startswith("_"):
                            setattr(cls, name,
                                    recorder.span("%s.%s" % (short, name), obj))
    for modname, mod in list(sys.modules.items()):
        if modname == "qsigns" or modname.startswith("qsigns."):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, name, wrapped[id(obj)])


def main(argv: list[str]) -> int:
    out_path, qsigns_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    recorder = Recorder()
    install(recorder)
    install_s = time.perf_counter() - t0
    import qsigns.cli
    rc = 1
    try:
        rc = qsigns.cli.main(qsigns_args)
    except SystemExit as exc:   # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        main_s = next((s[3] for s in recorder.spans if s[0] == "cli.main"),
                      0.0)
        with open(out_path, "w") as fp:
            json.dump({"install_s": install_s, "main_s": main_s,
                       "covered_s": recorder.covered_s,
                       "counts": recorder.totals(),
                       "spans": recorder.spans}, fp)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
