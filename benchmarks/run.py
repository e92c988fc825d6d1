"""qsigns benchmark runner.

    python3 benchmarks/run.py --workload {halfint,dense,tables,all}
        --seed N --seconds S --trace {0,1} [--profile {full,tiny}]
        [--spans FILE]

Run it from the root of a qsigns checkout; it runs the sources in src/
and writes only under .bench_work/ there, which it removes again.  It
runs one fresh `python3 -m qsigns` child at a time (closed loop, one
client), so a run uses one core for the program.

A run sets the workload up several times (the median is setup_s), then
repeats passes over the workload's commands until --seconds have been
measured, finishing the pass in progress.  Times are reported in
reference seconds (see PROBE_REF_S); the summary also prints the wall
time as measured and the host speed.  Every output is checked after
its command; a wrong output or an unexpected exit code counts as a
failed command.  With --trace 1 passes alternate between plain and
traced children (benchmarks/tracer.py); the traced passes give the
per-layer metrics and the plain ones the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable summary.  The exit code is 0 when every output was right, 1
when some was wrong, and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# A run of one workload must end within 180 s; children still running at
# this point are killed and count as failed.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

PER_LAYER = {}
for _path in ("ss", "sd", "dd"):
    PER_LAYER.update({"qseries.mul.%s.calls" % _path: "count",
                      "qseries.mul.%s.self_s" % _path: "s",
                      "qseries.mul.%s.coeff_ops" % _path: "count",
                      "qseries.mul.%s.max_bits" % _path: "bits"})
PER_LAYER.update({
    "qseries.pow_.self_s": "s", "qseries.pow_.total_s": "s",
    "qseries.u_op.self_s": "s", "qseries.u_op.kept_frac": "ratio",
    "qseries.dilate.self_s": "s", "qseries.derive.self_s": "s",
    "qseries.eisenstein_e4.self_s": "s",
    "qseries.calls": "count", "qseries.self_s": "s",
    "formspec.parse_formspec.self_s": "s", "formspec.evaluate.self_s": "s",
    "forms.integer_table.self_s": "s", "forms.self_s": "s",
    "coeffio.parse.self_s": "s", "coeffio.parse.bytes": "bytes",
    "coeffio.serialize.self_s": "s", "coeffio.serialize.bytes": "bytes",
    "coeffio.self_s": "s",
    "signs.r_plus_tot.self_s": "s", "signs.r_plus_fund.self_s": "s",
    "signs.self_s": "s",
    "hecke.t_square_half.self_s": "s", "hecke.eigen_report.self_s": "s",
    "hecke.recurrence_check.self_s": "s", "hecke.shimura_lift.self_s": "s",
    "hecke.t_integral.self_s": "s", "hecke.self_s": "s",
    "arith.calls": "count",
    "cli.self_s": "s", "cli.startup_s": "s",
    "trace.coverage": "ratio", "trace.overhead_frac": "ratio",
})


# Host speed on a shared machine drifts by 20 % within a minute, and CPU
# time drifts with it.  While a child runs, the runner times a fixed unit
# of work every PROBE_GAP_S on the other core; each command's times are
# scaled by PROBE_REF_S / (median unit time), i.e. reported in seconds on
# a host where the unit takes PROBE_REF_S.  The unit has the shape of
# qsigns' hot loop (a fused multiply-add pass over a list of ints).  A
# 25 ms gap slowed the child measurably; a 50 ms gap cost it about 1 %.
PROBE_REF_S = 0.00125
PROBE_GAP_S = 0.05
_PROBE_DATA = [(i * 2654435761) % (1 << 61) for i in range(4000)]


def probe_unit() -> float:
    b = _PROBE_DATA
    t0 = time.perf_counter()
    out = [0] * len(b)
    for c in (1, 2, 3):
        out[c:] = [x + c * y for x, y in zip(out[c:], b[:len(b) - c])]
    return time.perf_counter() - t0


class Sample:
    """One child: wall time from spawn to reap, its own CPU time and peak
    RSS from os.wait4 on its pid, and its spans when traced.  wall and cpu
    are in reference seconds (the measured time times scale)."""

    def __init__(self, raw_wall, cpu, rss_mb, scale, spans=None):
        self.raw_wall, self.scale = raw_wall, scale
        self.wall, self.cpu = raw_wall * scale, cpu * scale
        self.rss_mb, self.spans = rss_mb, spans


class Runner:
    """Runs commands one child at a time and checks their outputs."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        # a fixed hash seed gives every run the same dict layouts
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=src + os.pathsep + path if path else src)
        self.attempted = 0
        self.problems = []

    def _spawn_and_reap(self, argv):
        """Run argv to its end while probing the host speed.  Returns the
        measured wall time, the exit code, the child's rusage and the
        probe's unit times."""
        reaped = {}

        def reap():
            # wait4 on this pid: RUSAGE_CHILDREN's ru_maxrss would be a
            # running maximum over every child reaped so far.
            reaped["wait"] = os.wait4(proc.pid, 0)
            reaped["t1"] = time.perf_counter()

        units, killed = [], False
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            waiter = threading.Thread(target=reap)
            waiter.start()
            try:
                while True:
                    units.append(probe_unit())
                    waiter.join(PROBE_GAP_S)
                    if not waiter.is_alive():
                        break
                    if not killed and time.monotonic() > self.deadline:
                        proc.kill()
                        killed = True
            except BaseException:
                proc.kill()
                waiter.join()
                raise
        _, status, usage = reaped["wait"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        return reaped["t1"] - t0, proc.returncode, usage, units

    def run(self, cmd: workloads.Command, traced: bool = False) -> Sample:
        for name in cmd.outputs:
            (self.work / name).unlink(missing_ok=True)
        spans_path = self.work / "spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "qsigns"]
        wall, rc, usage, units = self._spawn_and_reap(argv + cmd.args)
        self.attempted += 1
        if rc != 0:
            tail = (self.work / "stderr.txt").read_text().strip().splitlines()
            problem = "exit %d%s" % (rc, ": " + tail[-1] if tail else "")
        else:
            try:
                problem = cmd.check()
            except Exception as exc:   # a missing or malformed output
                problem = "output unreadable: %r" % (exc,)
        if problem:
            self.problems.append("qsigns %s: %s" % (" ".join(cmd.args), problem))
        spans = None
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
        return Sample(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024,
                      PROBE_REF_S / statistics.median(units), spans)


def run_workload(name: str, args, root: Path) -> dict:
    """Set up, measure and check one workload; returns its result."""
    deadline = time.monotonic() + DEADLINE_S
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=name + "-", dir=root / ".bench_work"))
    try:
        runner = Runner(root, work, deadline)
        plan = workloads.WORKLOADS[name](work, args.profile,
                                         random.Random(args.seed))
        setups = []
        for _ in range(plan.setup_reps):
            setups.append(sum(runner.run(c).wall for c in plan.setup))
        plan.prepare()

        plain, traced = [], []
        start = time.perf_counter()
        while time.monotonic() < deadline:
            kind = traced if args.trace and len(plain) > len(traced) else plain
            kind.append([runner.run(c, kind is traced) for c in plan.commands])
            if (time.perf_counter() - start >= args.seconds
                    and (traced or not args.trace)):
                break
        return {"workload": name, "params": plan.params, "setups": setups,
                "labels": [" ".join(c.args[:3]) for c in plan.commands],
                "plain": plain, "traced": traced,
                "attempted": runner.attempted, "problems": runner.problems}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(result: dict) -> dict:
    passes = result["plain"]
    return {"wall_s": statistics.median(sum(s.wall for s in p) for p in passes),
            "cpu_s": statistics.median(sum(s.cpu for s in p) for p in passes),
            "peak_rss_mb": statistics.median(max(s.rss_mb for s in p)
                                             for p in passes),
            "setup_s": statistics.median(result["setups"])}


def layer_values(traced_pass: list[Sample]) -> dict:
    """Per-layer totals over the commands of one traced pass; times are
    scaled to reference seconds like the end-to-end ones."""
    v = defaultdict(float)
    for sample in traced_pass:
        doc = sample.spans
        if doc is None:   # a killed child; counted as failed already
            continue
        k = sample.scale
        v["cli.startup_s"] += k * (sample.raw_wall - doc["main_s"]
                                   - doc["install_s"])
        v["main"] += doc["main_s"]
        v["covered"] += doc["covered_s"]
        v["arith.calls"] += sum(doc["counts"].values())
        for name, _parent, _start, dur, self_s, stats in doc["spans"]:
            module = name.split(".")[0]
            v[module + ".self_s"] += k * self_s
            v[module + ".calls"] += 1
            if name == "qseries.mul":
                key = "qseries.mul." + stats["path"]
                v[key + ".calls"] += 1
                v[key + ".self_s"] += k * self_s
                v[key + ".coeff_ops"] += stats["coeff_ops"]
                v[key + ".max_bits"] = max(v[key + ".max_bits"],
                                           stats["max_bits"])
            else:
                v[name + ".self_s"] += k * self_s
            if name == "qseries.pow_":
                v["qseries.pow_.total_s"] += k * dur
            elif name == "qseries.u_op":
                v["u_op.in"] += stats["in_prec"]
                v["u_op.out"] += stats["out_prec"]
            elif name in ("coeffio.parse", "coeffio.serialize"):
                v[name + ".bytes"] += stats["bytes"]
    v["trace.coverage"] = v["covered"] / v["main"] if v["main"] else 0.0
    # kept_frac is 0 when no U_m ran.
    v["qseries.u_op.kept_frac"] = (v["u_op.out"] / v["u_op.in"]
                                   if v["u_op.in"] else 0.0)
    return v


def per_layer(result: dict) -> dict:
    values = [layer_values(p) for p in result["traced"]]
    out = {name: statistics.median(v[name] for v in values)
           for name in PER_LAYER if name != "trace.overhead_frac"}
    wall_plain = statistics.median(sum(s.wall for s in p)
                                   for p in result["plain"])
    wall_traced = statistics.median(sum(s.wall for s in p)
                                    for p in result["traced"])
    out["trace.overhead_frac"] = wall_traced / wall_plain - 1
    return out


def tail_percentile(values: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def summarize(result: dict, metrics: dict, trace: bool) -> list[str]:
    lines = ["# workload %s  params %s" % (result["workload"],
                                            json.dumps(result["params"]))]
    passes = result["plain"]
    walls = [sum(s.wall for s in p) for p in passes]
    tail = tail_percentile(walls)
    fail_frac = len(result["problems"]) / result["attempted"]
    notes = {"wall_s": "median of %d passes%s" % (
                 len(walls), "; p%.0f %.4f s" % tail if tail else
                 "; no percentile has 10 samples beyond it"),
             "cpu_s": "child user+sys per pass, median",
             "peak_rss_mb": "largest child per pass, median",
             "setup_s": "median of %d set-ups" % len(result["setups"])}
    if trace:
        lines.append("#   %d plain and %d traced passes"
                     % (len(passes), len(result["traced"])))
        for name, unit in PER_LAYER.items():
            lines.append("#   %-34s %14.6g %s" % (name, metrics[name], unit))
    else:
        for name, unit in END_TO_END.items():
            lines.append("#   %-12s %12.6f %-5s %s" % (name, metrics[name], unit,
                                                        notes[name]))
        raw = [sum(s.raw_wall for s in p) for p in passes]
        speed = statistics.median(s.scale for p in passes for s in p)
        lines.append("#   measured wall per pass %.4f s (median); host ran at "
                     "%.3f of reference speed" % (statistics.median(raw), speed))
        lines.append("#   pass walls: " + " ".join("%.3f" % w for w in walls))
        for i, label in enumerate(result["labels"]):
            lines.append("#   %-32s median wall %.4f s" % (
                label, statistics.median(p[i].wall for p in passes)))
    lines.append("#   %-12s %12.6f %-5s %d of %d commands" % (
        "fail_frac", fail_frac, "ratio", len(result["problems"]),
        result["attempted"]))
    lines += ["#   FAILED %s" % p for p in result["problems"][:5]]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=sorted(workloads.PROFILES),
                   default="full")
    p.add_argument("--spans", help="with --trace 1, write the spans of "
                                   "every traced command to this file")
    args = p.parse_args(argv)

    # A terminated run still kills and reaps its child and removes its
    # scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "qsigns" / "cli.py").is_file():
        print("error: run from the root of a qsigns checkout "
              "(no src/qsigns here)", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    metrics, attempted, failed, spans = {}, 0, 0, {}
    for name in names:
        result = run_workload(name, args, root)
        if not result["plain"] or (args.trace and not result["traced"]):
            print("error: no pass of %s finished before the deadline" % name,
                  file=sys.stderr)
            return 2
        values = per_layer(result) if args.trace else end_to_end(result)
        units = PER_LAYER if args.trace else END_TO_END
        prefix = name + "." if args.workload == "all" else ""
        for line in summarize(result, values, args.trace):
            print(line)
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in values.items()})
        attempted += result["attempted"]
        failed += len(result["problems"])
        spans[name] = [[s.spans for s in p] for p in result["traced"]]
    if args.spans and args.trace:
        Path(args.spans).write_text(json.dumps(spans))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
