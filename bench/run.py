"""sepfrag benchmark: decide-ground, decide-fo and equiv-check.

    python3 bench/run.py --workload decide-fo --seed 1 --seconds 16 --trace 0

Each workload is a closed loop: one client in one process, the next
operation sent when the previous one has returned.  An operation goes from
sentence text to answer, parsing included, under a per-operation deadline
enforced in-process with SIGALRM.  The loop makes whole passes over the
workload's seeded corpus, at least MIN_PASSES of them and more until
`--seconds` have passed.  Each operation's latency is the fastest of its
passes: load from outside the process only ever adds time, and on a shared
machine it comes and goes over seconds, so the fastest pass is the
steadiest estimate.  Throughput and percentiles are taken over these
per-operation latencies.  Every answer is then checked outside the timed
region (see check.py).

The speed of a shared machine also drifts by up to a third over minutes,
which no length of run averages out.  So every time metric is scaled to a
reference speed: a fixed piece of the benchmark's own code is timed every
tenth of a second between operations, and times are multiplied by
CALIBRATION_REF_MS over the mean of the fastest quarter of those
timings.  Deadlines are in reference time too: each is divided by the
scale when its timer is set, so the same operations hit it on a fast and
on a slow machine.  The unscaled values and the calibration are in the
report.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
the run spends half its time untraced and half with the public functions
of the sepfrag modules wrapped (see tracer.py), and the last line holds
the per-layer metrics of the traced half.  The line before the last one is
the full report: machine, sample counts, verdicts, the answer checks, the
failures, and the metrics that cannot be end-to-end metrics because they
are zero on some workload (failed_frac and the bsr_* totals).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import logic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("decide-ground", "decide-fo", "equiv-check")
MIN_PASSES = 2
TRACE_MIN_PASSES = 1  # for each half of a traced run, so overhead compares like with like
SETUP_LAUNCHES = 5
CALIBRATION_TEXT = (
    "forall x1. exists y1. forall x2. exists y2. "
    "(P(x1, x2) | ~Q(y1)) & (Q(y2) | R(x1)) & (x1 = x2 | P(y1, y2))"
)
CALIBRATION_REF_MS = 1.4
CALIBRATION_EVERY_S = 0.1


class Deadline(BaseException):
    """Raised by the SIGALRM handler; a BaseException so that the
    program's own `except Exception` clauses cannot swallow it."""


# True only while an operation runs.  The handler of a SIGALRM that is
# delivered after the operation has ended (the timer expired while it was
# being cleared) sees False and does nothing, so a Deadline can never be
# raised outside the operation's try statement.
_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise Deadline()


class Speed:
    """Timings of the calibration routine: grounding CALIBRATION_TEXT at
    size 3 with the benchmark's own logic.py, which no change to sepfrag
    can alter.  The collector is off while it runs, so the size of the
    program's heap cannot slow it down.  The machine's speed is the mean
    of the fastest quarter of the timings: operation latencies are the
    fastest of their passes, so both sides of the ratio are best-case
    times, and bursts of load from elsewhere drop out of both."""

    def __init__(self):
        self._tree = logic.parse(CALIBRATION_TEXT)
        self._last = 0.0
        self.samples_ms = []
        self.calibration_ms = CALIBRATION_REF_MS
        self.scale = 1.0  # turns a time measured now into reference time

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            logic.ground_gates(self._tree, 3)
            self.samples_ms.append((time.perf_counter_ns() - t0) / 1e6)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()
        fastest = sorted(self.samples_ms)[: max(1, len(self.samples_ms) // 4)]
        self.calibration_ms = statistics.fmean(fastest)
        self.scale = CALIBRATION_REF_MS / self.calibration_ms

    def maybe_sample(self):
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample()


def execute(workload, op):
    """One operation: text in, (answer, to_bsr output or None) out.  Every
    sepfrag function is looked up on its module at call time, so the
    tracer's wrappers apply."""
    from sepfrag import decide, generators, search, syntax, translate

    f, _ = syntax.parse_formula(op.text)
    if workload == "decide-ground":
        return decide.decide_sat(f), None
    if workload == "decide-fo":
        return decide.decide_sat(f, decide.DecideConfig(max_model_size=op.size)), None
    if op.kind in ("to_bsr", "hard1_bsr"):
        bsr = translate.to_bsr(syntax.to_standard_form(f))
        return search.equivalent_upto(f, bsr.to_formula(), op.size), bsr
    if op.kind == "smp":
        nnf = syntax.to_nnf(generators.expand_counting(f).formula)
        translated = generators.smp_to_sf(nnf, op.bound)
        return search.equivalent_upto(syntax.And((translated, syntax.Not(nnf))), syntax.Bottom(), op.size), None
    return search.equivalent_upto(f, syntax.Not(f), op.size), None


def run_passes(workload, ops, seconds, min_passes, speed, tracer=None):
    """Whole passes over the corpus, at least `min_passes` and until
    `seconds` have passed, sampling `speed` between operations.  Returns
    (passes, samples, bsrs): one (index, ns, outcome, answer) sample per
    operation run, where outcome is ok, error, deadline or crash, and the
    to_bsr output of each operation that made one."""
    global _armed
    from sepfrag.errors import SepfragError

    signal.signal(signal.SIGALRM, _on_alarm)
    samples = []
    bsrs = {}
    passes = 0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            speed.maybe_sample()
            answer = bsr = None
            t0 = time.perf_counter_ns()
            try:
                # The timer is stopped before any handler below runs, and a
                # Deadline raised while it is being stopped is still caught.
                try:
                    _armed = True
                    signal.setitimer(signal.ITIMER_REAL, op.deadline / speed.scale)
                    answer, bsr = execute(workload, op)
                    outcome = "ok"
                finally:
                    _armed = False
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                answer, bsr, outcome = None, None, "deadline"
            except SepfragError as e:
                outcome = "error"
                answer = type(e).__name__
            except Exception as e:
                outcome = "crash"
                answer = type(e).__name__
            ns = time.perf_counter_ns() - t0
            if bsr is not None:
                bsrs[i] = bsr
            samples.append((i, ns, outcome, answer))
            if tracer is not None:
                tracer.end_op(outcome != "deadline")
        passes += 1
    return passes, samples, bsrs


def measure_setup(speed):
    """Median wall time of a fresh interpreter importing sepfrag and
    running `sepfrag check "exists x. P(x)"`, after one unmeasured launch;
    `speed` is sampled before each launch."""
    code = "import sys; from sepfrag.cli import run; sys.exit(run(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "check", "exists x. P(x)"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        for _ in range(3):
            speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or "degree" not in json.loads(proc.stdout):
            raise RuntimeError(f"sepfrag check failed: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def machine():
    import numpy

    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": lines,
    }


def summarize(ops, samples, checker, scale):
    """End-to-end metrics, plus the report entries that go with them.
    Latencies are multiplied by `scale` (see Speed); a deadline hit costs
    its deadline, which is in reference time already."""
    per_op = [[] for _ in ops]
    for i, ns, outcome, _ in samples:
        per_op[i].append(ops[i].deadline * 1e3 if outcome == "deadline" else ns / 1e6 * scale)
    lat = sorted(min(v) for v in per_op)
    p95 = statistics.quantiles(lat, n=100, method="inclusive")[94]
    verdicts = {}
    failures = []
    n_decided = 0
    for i, ns, outcome, answer in samples:
        label = outcome
        if outcome == "ok":
            label = getattr(answer, "status", None) or ("equal" if answer.equal else "different")
            n_decided += label != "inconclusive"
            try:
                reason = checker.check(i, ops[i], answer)
            except Exception as e:  # an answer that cannot be checked is not accepted
                reason = f"the checker raised {type(e).__name__}: {e}"[:200]
            if reason is not None:
                failures.append({"op": i, "kind": ops[i].kind, "wrong": reason, "text": ops[i].text[:200]})
        elif outcome == "crash":
            failures.append({"op": i, "kind": ops[i].kind, "crash": answer})
        verdicts[label] = verdicts.get(label, 0) + 1
    by_kind = {}
    for op, v in zip(ops, per_op):
        by_kind.setdefault(op.kind, []).append(min(v))
    return {
        "ops_per_s": len(ops) / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p95_ms": p95,
        "decided_frac": n_decided / len(samples),
        "failed_frac": len(failures) / len(samples),
        "samples": len(samples),
        "ops_beyond_p95": sum(1 for x in lat if x > p95),
        "verdicts": verdicts,
        "latency_ms_by_kind": {
            k: {"n": len(v), "p50": statistics.median(v), "max": max(v)} for k, v in sorted(by_kind.items())
        },
        "failures": failures,
    }


def bsr_totals(bsrs):
    """Size of the to_bsr outputs of one pass (equiv-check only)."""
    from sepfrag.syntax import formula_len

    return {
        "bsr_leading_total": sum(b.stats.leading_existentials for b in bsrs.values()),
        "bsr_size_total": sum(formula_len(b.to_formula()) for b in bsrs.values()),
    }


UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "decided_frac": "fraction",
    "failed_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bsr_leading_total": "count",
    "bsr_size_total": "count",
}
END_TO_END = ["ops_per_s", "latency_p50_ms", "latency_p95_ms", "decided_frac", "setup_s", "peak_rss_mb"]


def per_layer_unit(name):
    if name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "1/s" if "ops_per_s" in name else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sepfrag" / "__init__.py").is_file():
        print(f"sepfrag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import corpus

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine()}
    phase = {}
    t = time.perf_counter()
    speed = Speed()
    setup_raw = measure_setup(speed)
    phase["setup"] = time.perf_counter() - t
    t = time.perf_counter()
    ops = corpus.WORKLOADS[args.workload](args.seed)
    report["corpus"] = {}
    for op in ops:
        entry = report["corpus"].setdefault(op.kind, {"ops": 0, "deadline_s": op.deadline})
        entry["ops"] += 1
    warm = corpus.Op("warm-up", "exists x. P(x) & (forall y. P(y) | Q(y))", (), 1.0, 2)
    run_passes("decide-fo", [warm], 0, 1, speed)
    # the corpus lives for the whole run: keep it out of the collector's scans
    gc.collect()
    gc.freeze()
    phase["corpus"] = time.perf_counter() - t

    t = time.perf_counter()
    if args.trace:
        import tracer as tracing

        passes, samples, bsrs = run_passes(args.workload, ops, args.seconds / 2, TRACE_MIN_PASSES, speed)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t_passes, t_samples, _ = run_passes(args.workload, ops, args.seconds / 2, TRACE_MIN_PASSES, speed, tracer)
        finally:
            tracer.uninstall()
    else:
        passes, samples, bsrs = run_passes(args.workload, ops, args.seconds, MIN_PASSES, speed)
    phase["timed"] = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t = time.perf_counter()
    checker = check.Checker()
    scale = speed.scale
    e2e = summarize(ops, samples, checker, scale)
    e2e.update(setup_s=setup_raw * scale, peak_rss_mb=peak_rss_mb, passes=passes)
    report["speed"] = {
        "calibration_ms": speed.calibration_ms,
        "calibrations": len(speed.samples_ms),
        "unscaled": {
            "ops_per_s": e2e["ops_per_s"] * scale,
            "latency_p50_ms": e2e["latency_p50_ms"] / scale,
            "latency_p95_ms": e2e["latency_p95_ms"] / scale,
            "setup_s": setup_raw,
        },
    }
    if args.workload == "equiv-check":
        e2e.update(bsr_totals(bsrs))
    failures = e2e.pop("failures")
    report["end_to_end"] = {k: ({"value": v, "unit": UNITS[k]} if k in UNITS else v) for k, v in e2e.items()}
    n_attempted = len(samples)
    if args.trace:
        traced = summarize(ops, t_samples, checker, scale)
        failures += traced.pop("failures")
        n_attempted += len(t_samples)
        op_ns = sum(ns for _, ns, _, _ in t_samples)
        metrics = tracer.metrics(t_passes, scale)
        metrics["trace.ops_per_s_untraced"] = e2e["ops_per_s"]
        metrics["trace.ops_per_s_traced"] = traced["ops_per_s"]
        metrics["trace.overhead_frac"] = 1 - traced["ops_per_s"] / e2e["ops_per_s"]
        metrics["trace.unaccounted_frac"] = 1 - tracer.covered_ns / op_ns
        report["traced_passes"] = t_passes
        report["span_parents"] = {
            f"{parent or 'op'} > {child}": {"calls": calls, "s": ns / 1e9}
            for (parent, child), (calls, ns) in sorted(tracer.edges.items(), key=lambda kv: -kv[1][1])
        }
        out = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
    else:
        out = {k: report["end_to_end"][k] for k in END_TO_END}
    phase["check"] = time.perf_counter() - t
    report["checked_by"] = checker.ways
    report["failures"] = failures
    report["phase_s"] = phase
    print(json.dumps({"report": report}))
    wrong = [f for f in failures if "wrong" in f]
    result = {"correct": not wrong, "attempted": n_attempted, "failed": len(failures), "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
