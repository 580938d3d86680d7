"""slopestab benchmark: seeded corpora driven through the public CLI.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from a checkout: the program is imported from `src/` beside this
directory, never from an installed copy.  Each run sets up (import plus
corpus generation) several times, then makes passes over the corpus with
`slopestab.cli.main` called in-process, in one thread, for about
`--seconds`.  Every op's output is checked (see checks.py), and a corrupted
copy of each kind of output must be rejected.  The last stdout line is one
JSON object; with `--trace 1` it holds the per-layer metrics of traced
passes, interleaved with untraced ones to give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from math import ceil, floor
from pathlib import Path
from time import perf_counter

import checks
import corpus
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPS = 5

# The speed of a shared host drifts by up to 2x between runs, far beyond any
# useful bound, so end-to-end times are reported at a reference speed: each
# op's time is scaled by REFERENCE_S / k, where k is the median time of
# calibrate() over the WINDOW runs of it just before and just after the op,
# and REFERENCE_S is about calibrate()'s time on an idle host (x86-64,
# Python 3.11).  Raw times are printed as well.
REFERENCE_S = 0.0006
WINDOW = 3
_POLY = tuple(Fraction(3 * i + 1, 7 * i + 2) for i in range(7))
_POINTS = tuple(Fraction(p, q) for p, q in ((1, 3), (22, 7), (355, 113), (-5, 11))) * 8

END_TO_END = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Layer times are raw seconds per traced pass (shares within a run are what
# they show); trace.wall_s and trace.untraced_wall_s are at reference speed.
PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "models.parse_model.total_s": "s",
    "models.validate.total_s": "s",
    "toric.export_table.calls": "count",
    "toric.export_table.self_s": "s",
    "toric.ToricModel.validate.total_s": "s",
    "toric.nef_threshold.total_s": "s",
    "toric.polytope_of.calls": "count",
    "toric.polytope_of.total_s": "s",
    "toric.LatticePolytope.volume.calls": "count",
    "toric.LatticePolytope.volume.total_s": "s",
    "toric.LatticePolytope.boundary_lattice_volume.calls": "count",
    "toric.LatticePolytope.boundary_lattice_volume.total_s": "s",
    "polynomials.rational_roots.calls": "count",
    "polynomials.rational_roots.total_s": "s",
    "polynomials.isolate_roots.total_s": "s",
    "polynomials.sign_variations.calls": "count",
    "polynomials.fit_polynomial.calls": "count",
    "polynomials.fit_polynomial.total_s": "s",
    "polynomials.fit_polynomial.witnesses": "count",
    "slope.alpha_polys.self_s": "s",
    "slope.stability_scan.self_s": "s",
    "slope.perturbation_limit.self_s": "s",
    "slope.mu_c.calls": "count",
    "oracle.verify_main_theorem.calls": "count",
    "oracle.verify_main_theorem.self_s": "s",
    "oracle.fit_expansions.self_s": "s",
    "oracle.points_accepted": "count",
    "oracle.box_points": "count",
    "oracle.box_efficiency": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.op_span_share": "ratio",
}

class SetupError(Exception):
    pass


def load_program():
    """Import slopestab afresh from this checkout's src/."""
    for key in [k for k in sys.modules if k.split(".")[0] == "slopestab"]:
        del sys.modules[key]
    try:
        cli = importlib.import_module("slopestab.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import slopestab from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"slopestab was imported from {cli.__file__}, not from {SRC}")
    return cli


def calibrate():
    """Time a fixed slice of the kind of work the program does: exact
    rational Horner steps and big-integer remainders."""
    start = perf_counter()
    for x in _POINTS:
        acc = Fraction(0)
        for c in _POLY:
            acc = acc * x + c
    n = 10**30 + 57
    for i in range(3, 1200, 2):
        n % i
    return perf_counter() - start


def set_up(workload, seed, workdir):
    """Import the program and write the corpus; the median of several
    repetitions, at reference speed, is setup_s."""
    times = []
    for _ in range(SETUP_REPS):
        k = statistics.median(calibrate() for _ in range(5))
        start = perf_counter()
        cli = load_program()
        docs, ops = corpus.GENERATORS[workload](seed)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for name, doc in docs.items():
            (workdir / name).write_text(json.dumps(doc))
        times.append((perf_counter() - start) * REFERENCE_S / k)
    return statistics.median(times), cli, docs, ops


def call_cli(cli, argv):
    """(exit code or failure text, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):  # a crash is a failed op, not a failed run
        code = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, ops, workdir, tracer, pass_no):
    """(op time, exit code, stdout, stderr) per op, and the calibrate()
    times taken before each op and after the last."""
    results, ks = [], []
    for i, op in enumerate(ops):
        argv = [op["cmd"], str(workdir / op["doc"]), *op["args"]]
        tracer.op_id = f"{pass_no}.{i}"
        ks.append(calibrate())
        start = perf_counter()
        code, out, err = call_cli(cli, argv)
        results.append((perf_counter() - start, code, out, err))
    ks.append(calibrate())
    return results, ks


def at_reference_speed(results, ks):
    """The op times of one pass, each scaled by the machine speed around it."""
    return [
        r[0] * REFERENCE_S / statistics.median(ks[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        for i, r in enumerate(results)
    ]


class Checker:
    """Checks the first pass's outputs; later passes must repeat them."""

    def __init__(self, cli, docs, ops, first, workdir):
        self.cli, self.docs, self.ops, self.first = cli, docs, ops, first
        self.workdir = workdir

    def reanalyze(self, table_text, args):
        path = self.workdir / "exported.json"
        path.write_text(table_text)
        code, out, _ = call_cli(self.cli, ["analyze", str(path), *args])
        return out if code == 0 else f"exit {code}"

    def problems(self, i, out):
        op = self.ops[i]
        doc = self.docs[op["doc"]]
        cmd, args = op["cmd"], op["args"]
        if cmd == "verify":
            return checks.check_verify(doc, args, out)
        if cmd == "export-table":
            probs = checks.check_export(doc, out, op["check"].get("pn_point"))
            for j, other in enumerate(self.ops):
                if other["cmd"] == "analyze" and other["check"].get("export") == i:
                    if self.reanalyze(out, other["args"]) != self.first[j][2]:
                        probs.append("analyze of the exported table differs from "
                                     "analyze of the toric document")
            return probs
        if doc["kind"] == "toric":  # checked against the model's exported table
            exported = self.first[op["check"]["export"]]
            if exported[1] != 0:
                return ["export of this model failed"]
            doc = json.loads(exported[2])
        if cmd == "limit":
            return checks.check_limit(doc, args, out)
        check = checks.check_analyze if cmd == "analyze" else checks.check_scan
        return check(checks.Reference.from_doc(doc), args, out)

    def check_first(self):
        """Problems of each op of the first pass."""
        found = []
        for i, (_, code, out, err) in enumerate(self.first):
            if code != 0:
                found.append([f"exit {code}: {err.strip()[:200]}"])
            else:
                found.append(self.problems(i, out))
        return found

    def self_test(self, problems):
        """Corrupt a passing output of each command (the one allowing the
        most corruptions); return the number caught and those missed."""
        chosen = {}
        for i, op in enumerate(self.ops):
            if not problems[i]:
                found = checks.mutants(op["cmd"], self.first[i][2])
                if len(found) > len(chosen.get(op["cmd"], (i, []))[1]):
                    chosen[op["cmd"]] = (i, found)
        caught, missed = 0, []
        for cmd, (i, found) in chosen.items():
            for name, text in found:
                if self.problems(i, text):
                    caught += 1
                else:
                    missed.append(f"{cmd}: {name}")
        return caught, missed


def box_points(tracer):
    """Bounding-box points the oracle scans for the traced verifications,
    from the public polytope_of(...).vertices (computed untraced)."""
    from slopestab.toric import polytope_of

    total, cache = 0, {}
    for model, ms in tracer.verified:
        if id(model) not in cache:
            cache[id(model)] = polytope_of(model.fan, model.L).vertices
        verts = cache[id(model)]
        for m in ms:
            count = 1
            for d in range(model.fan.dim):
                coords = [v[d] for v in verts]
                count *= ceil(m * max(coords)) - floor(m * min(coords)) + 1
            total += count
    return total


def quantile(values, q):
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def measure(cli, ops, workdir, seconds, trace, tracer):
    """(traced, results, calibrate() times) per pass, until another pass
    would overrun `seconds`; with tracing, every second pass is traced."""
    passes, durations = [], []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            passes.append((traced, *run_pass(cli, ops, workdir, tracer, len(passes))))
            durations.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        typical = statistics.median(durations)
        if len(passes) >= (2 if trace else 1) and perf_counter() - start + typical > seconds:
            return passes


def wall(results):
    return sum(r[0] for r in results)


def end_to_end(passes, ops, setup_s):
    untraced = [(results, ks) for traced, results, ks in passes if not traced]
    scaled = [at_reference_speed(results, ks) for results, ks in untraced]
    latency = [statistics.median(times[i] for times in scaled) for i in range(len(ops))]
    metrics = {
        "wall_s": statistics.median(sum(times) for times in scaled),
        "op_ms_p50": 1000 * quantile(latency, 5),
        "op_ms_p90": 1000 * quantile(latency, 9),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = [statistics.median(r[i][0] for r, _ in untraced) for i in range(len(ops))]
    per_command = {}
    for op, t, t_raw in zip(ops, latency, raw):
        key = op["cmd"].replace("-", "_") + "_s"
        count, total, total_raw = per_command.get(key, (0, 0.0, 0.0))
        per_command[key] = (count + 1, total + t, total_raw + t_raw)
    slowdown = statistics.median(k for _, ks in untraced for k in ks) / REFERENCE_S
    raw_wall = statistics.median(wall(r) for r, _ in untraced)
    return metrics, per_command, max(latency), raw_wall, slowdown


def per_layer(passes, tracer, problems):
    """Layer times and counters per traced pass.  The tracing overhead
    compares traced and untraced passes at reference speed."""
    traced = [(results, ks) for is_traced, results, ks in passes if is_traced]
    untraced = [(results, ks) for is_traced, results, ks in passes if not is_traced]
    k = len(traced)
    values = tracer.layer_totals()
    values.update(tracer.counters)
    metrics = {name: values.get(name, 0) / k for name in PER_LAYER}
    boxed = box_points(tracer) / k
    metrics["oracle.box_points"] = boxed
    metrics["oracle.box_efficiency"] = metrics["oracle.points_accepted"] / boxed if boxed else 0.0
    for name, group in (("trace.wall_s", traced), ("trace.untraced_wall_s", untraced)):
        metrics[name] = statistics.median(sum(at_reference_speed(*p)) for p in group)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    share = tracer.top_level_time() / sum(wall(results) for results, _ in traced)
    metrics["trace.op_span_share"] = share
    if not 0.95 <= share <= 1.0:
        problems.append(f"top-level op spans cover {share:.3f} of the traced wall time")
    for name, unit in PER_LAYER.items():
        if unit == "count" and float(metrics[name]).is_integer():
            metrics[name] = int(metrics[name])
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer()
    try:
        setup_s, cli, docs, ops = set_up(args.workload, args.seed, workdir)
        passes = measure(cli, ops, workdir, args.seconds, args.trace, tracer)
        first = passes[0][1]
        checker = Checker(cli, docs, ops, first, workdir)
        problems = checker.check_first()
        caught, missed = checker.self_test(problems)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(p) for p in problems)
    for _, results, _ in passes[1:]:
        for i, (_, code, out, _) in enumerate(results):
            failed += bool(problems[i]) or (code, out) != first[i][1:3]
    attempted = len(ops) * len(passes)
    run_problems = [f"checker accepted a corrupted output ({m})" for m in missed]

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops x "
          f"{len(passes)} passes, {failed} of {attempted} failed "
          f"(failed_ratio {failed / attempted:.4f})")
    for i, probs in enumerate(problems):
        for p in probs[:3]:
            print(f"  FAILED op {i} {ops[i]['cmd']} {ops[i]['doc']}: {p}")
    print("pass walls (raw s): " + " ".join(
        f"{wall(results):.3f}{'t' if traced else ''}" for traced, results, _ in passes))
    print(f"checker self-test: {caught} corrupted outputs rejected, {len(missed)} accepted")

    if args.trace:
        metrics = per_layer(passes, tracer, run_problems)
        units = PER_LAYER
        RUN_DIR.mkdir(exist_ok=True)
        tracer.dump(RUN_DIR / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics, per_command, slowest, raw_wall, slowdown = end_to_end(passes, ops, setup_s)
        units = END_TO_END
        print(f"times at reference speed; this host ran calibrate() {slowdown:.3f}x "
              f"the reference time, raw wall_s {raw_wall:.6f} s")
        for key, (count, total, total_raw) in per_command.items():
            print(f"  {key:<16} {total:12.6f} s  (raw {total_raw:.6f} s, {count} ops)")
        # printed, not reported: a single op, so it spreads too much run to run
        print(f"  {'slowest_op_s':<16} {slowest:12.6f} s")
    for name, value in metrics.items():
        print(f"  {name:<54} {value:>16} {units[name]}" if isinstance(value, int)
              else f"  {name:<54} {value:16.6f} {units[name]}")
    for p in run_problems:
        print(f"  BENCHMARK PROBLEM: {p}")
    print(json.dumps({
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
