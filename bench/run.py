"""coincalc benchmark.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/`` and
``bench/``).  Workloads, each a closed loop with one client:

* ``cli-single``: every operation is a fresh
  ``python -m coincalc --format machine <command>``; interpreter start,
  imports and loading the table dominate, and nothing carries over
  between calls.
* ``pair-stream``: the table is loaded once, then a Zipf-skewed stream
  of ``classify_*_pair``, ``loose_pair`` and ``filtration_subgroup``
  calls revisits instances, so building instance data dominates.
* ``validate-sweep``: repeated in-process ``validate-db`` runs, which
  mostly read instance data already built (the case-predicate loop and
  subgroup membership).

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``setup_s``, ``ops_per_s``, ``latency_p50_ms``, ``latency_p90_ms``,
``peak_rss_mb``).  With ``--trace 1`` a fixed number of operations runs
first untraced, then under :mod:`tracer`, and the last line carries the
per-layer metrics; the spans are written to
``.bench_out/trace-<workload>.json``.  The line before the last is a
report with failure and unknown ratios, failure families, sample counts,
check results and the machine provenance.  The result's ``failed``
counts failed checks, changed pins and refusals other than the known
ones pinned in ``refusals.json``; the known refusals stay in the query
stream and are reported in ``refused_ratio`` and by family.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stdout
from pathlib import Path

import workload
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"
REFUSALS = BENCH / "refusals.json"
DEFAULT_SEED = 0

SETUP_REPS = 8
SETUP_CODE = ("import coincalc.cli, coincalc; coincalc.load_default_database(); "
              "print(coincalc.__file__, flush=True)")
WARMUP_OPS = {"cli-single": 3, "pair-stream": 4000, "validate-sweep": 3}
# operations per timed block; the clock is checked between blocks
BLOCK = {"cli-single": 1, "pair-stream": 64, "validate-sweep": 1}
LATENCY_SAMPLES = 50_000
# traced runs do a fixed number of operations per second of --seconds, so
# that their counts repeat exactly for a given seed
TRACE_OPS_PER_S = {"cli-single": 2, "pair-stream": 600, "validate-sweep": 0.4}
VALIDATE_ARGV = ["--format", "machine", "validate-db"]
WORKLOADS = tuple(WARMUP_OPS)


class GuardError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_package():
    """Import coincalc from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "coincalc" / "__init__.py").is_file():
        raise GuardError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coincalc

    if not _under_src(coincalc.__file__):
        raise GuardError(f"coincalc imported from {coincalc.__file__}, "
                         f"not from {SRC}")


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "seed": seed}


# ---------------------------------------------------------------------------
# set-up and start-up timings


def measure_setup() -> list[float]:
    """Seconds from launching an interpreter until ``import coincalc.cli``
    and ``load_default_database()`` have returned, ``SETUP_REPS`` times."""
    out = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline().strip()
        out.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or not _under_src(line or "/"):
            raise GuardError(f"set-up child imported coincalc from {line!r}")
    return out


def _median_wall(argv: list[str], reps: int = 5) -> float:
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def import_ms(reps: int = 5) -> float:
    """``import coincalc.cli`` per ``-X importtime``: the cumulative time
    of the top-level coincalc imports, median of ``reps`` interpreters."""
    totals = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import coincalc.cli"],
            cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True)
        total = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
            if m and m.group(2).startswith("coincalc"):
                total += int(m.group(1))
        totals.append(total / 1000)
    return statistics.median(totals)


# ---------------------------------------------------------------------------
# operations


class Context:
    """The window, the loaded table and the seed of one benchmark run."""

    def __init__(self, seed: int):
        from answers import shape_group
        from coincalc import load_default_database

        self.seed = seed
        table = workload.Table(SRC / "coincalc" / "data" / "sphere_groups.json")
        self.cells = workload.window(table)
        self.cells_by_key = {c.key: c for c in self.cells}
        self.db = load_default_database()
        self.groups = {c.key: shape_group(c.shape)
                       for c in self.cells if c.shape is not None}

    def queries(self, name: str):
        if name == "cli-single":
            return workload.cli_queries(self.cells, self.seed)
        if name == "pair-stream":
            return workload.stream_queries(self.cells, self.seed)
        return itertools.repeat(("validate-db",) + (None,) * 6)


def run_cli(query, traced_out: Path | None = None):
    """One ``cli-single`` operation; returns ``(exit code, stdout, stderr)``."""
    argv = ["--format", "machine"] + workload.cli_argv(query)
    if traced_out is None:
        cmd = [sys.executable, "-m", "coincalc", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(traced_out), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True)
    return proc.returncode, proc.stdout, proc.stderr


def cli_outcome(query, raw):
    """``(outcome, answer, message)`` of a command's exit code and output."""
    from answers import CRASH, FAILED, OK, UNKNOWN, cli_answer

    cmd, (code, stdout, stderr) = query[0], raw
    try:
        doc = json.loads(stdout)
    except ValueError:
        # argument errors are reported before ``--format`` takes effect,
        # so they come out in the human format; that is a refusal, not a crash
        if code == 1 and stdout.startswith("status: error"):
            message = stdout.partition("message: ")[2].strip()
            return FAILED, None, f"{message} (human-format output)"
        return CRASH, None, (stderr.strip().splitlines() or ["no output"])[-1]
    if code == 0 and doc.get("status") == "ok":
        return OK, cli_answer(cmd, doc["payload"]), ""
    if code == 2 and doc.get("status") == "unknown":
        return UNKNOWN, None, doc.get("message", "")
    if code == 1 and doc.get("status") == "error":
        return FAILED, None, doc.get("message", "")
    return CRASH, None, f"exit {code} with status {doc.get('status')!r}"


def make_op(ctx: Context, name: str):
    """The operation for ``name`` (query -> raw result) and the function
    turning ``(query, raw result)`` into ``(outcome, answer, message)``
    outside the timed region."""
    from answers import CRASH, FAILED, OK, UNKNOWN, library_call, library_answer
    from coincalc import cli
    from coincalc.errors import GapError, UsageError

    if name == "cli-single":
        return run_cli, cli_outcome
    if name == "validate-sweep":
        def validate(query):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(VALIDATE_ARGV)
            return code, buf.getvalue(), ""

        return validate, cli_outcome

    db, groups = ctx.db, ctx.groups

    def pair(query):
        try:
            result = library_call(db, query, groups)
        except GapError as exc:
            return UNKNOWN, None, str(exc)
        except UsageError as exc:
            return FAILED, None, str(exc)
        except Exception as exc:  # a crash is an outcome to report, not to stop on
            return CRASH, None, f"{type(exc).__name__}: {exc}"
        return OK, result, ""

    def finish(query, raw):
        outcome, result, message = raw
        return outcome, None if result is None else library_answer(result), message

    return pair, finish


# ---------------------------------------------------------------------------
# the measured loop


class Run:
    """Latencies and outcomes of one measured loop.

    Latencies are a uniform sample of at most ``LATENCY_SAMPLES`` and the
    rate is kept per tenth of the run, so that the benchmark's own memory
    does not grow with the program's speed."""

    def __init__(self, outcomes, seconds):
        self.ops = 0
        self.wall = 0.0
        self.latencies = array("d")
        self.chunks = [[0, 0.0]]  # [operations, seconds] per tenth of the run
        self.chunk_s = seconds / 10 if seconds else float("inf")
        self.outcomes = outcomes
        self.crashes: list[str] = []
        self.repeats = 0
        self._rng = random.Random(0)

    def add_block(self, n: int, elapsed: float):
        self.wall += elapsed
        if self.chunks[-1][1] >= self.chunk_s:
            self.chunks.append([0, 0.0])
        self.chunks[-1][0] += n
        self.chunks[-1][1] += elapsed

    def add_latency(self, seconds: float):
        self.ops += 1
        if len(self.latencies) < LATENCY_SAMPLES:
            self.latencies.append(seconds)
        else:
            j = self._rng.randrange(self.ops)
            if j < LATENCY_SAMPLES:
                self.latencies[j] = seconds

    def rate(self) -> float:
        """Operations per second sustained in nine tenths of the run: the
        10th percentile of the rates of its tenths.  On a shared host the
        rate swings by a third between phases of load from outside; a low
        percentile settles on the loaded level, which nearly every run
        reaches, instead of on the share of the run the host was idle."""
        rates = [n / t for n, t in self.chunks if t]
        if len(rates) < 2:
            return rates[0]
        return statistics.quantiles(rates, n=10, method="inclusive")[0]


def measure(op, finish, queries, outcomes, *, block, seconds=None, count=None,
            seen=None, span=None) -> Run:
    """Runs ``op`` over ``queries`` until ``seconds`` of measured time or
    ``count`` operations.  Query generation and bookkeeping happen between
    timed blocks.  ``seen`` holds the instances this process has already
    built; ``None`` when every operation runs in a fresh process."""
    from answers import CRASH, FAILED

    run = Run(outcomes, seconds)
    clock = time.perf_counter
    done = 0
    while (seconds is None or run.wall < seconds) and (count is None or done < count):
        n = block if count is None else min(block, count - done)
        batch = [next(queries) for _ in range(n)]
        results = []
        start = clock()
        for q in batch:
            t0 = clock()
            if span is None:
                res = op(q)
            else:
                with span("op"):
                    res = op(q)
            results.append((q, res, clock() - t0))
        run.add_block(n, clock() - start)
        done += n
        for q, raw, lat in results:
            outcome, answer, message = finish(q, raw)
            run.add_latency(lat)
            if seen is not None:
                inst = workload.instance_key(q)
                if inst in seen:
                    run.repeats += 1
                seen.add(inst)
            if outcome == CRASH:
                run.crashes.append(f"{q}: {message}")
                outcome = FAILED
            outcomes.add(q, outcome, answer, message)
    return run


def warm_up(op, queries, n: int, seen: set | None):
    for _ in range(n):
        q = next(queries)
        op(q)
        if seen is not None:
            seen.add(workload.instance_key(q))


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def load_pins() -> dict:
    return json.loads(PINS.read_text("utf-8"))["answers"]


def new_outcomes(name: str):
    """Outcomes of workload ``name``, which knows the pinned refusals of
    the interface the workload calls."""
    from answers import Outcomes

    refusals = json.loads(REFUSALS.read_text("utf-8"))["refusals"]
    return Outcomes(refusals, "library" if name == "pair-stream" else "cli")


def check_run(ctx: Context, run: Run):
    from answers import check

    verdict = check(ctx.db, ctx.cells_by_key, run.outcomes, load_pins())
    for crash in run.crashes[:20]:
        verdict.examples.append(f"crash: {crash}")
    verdict.violations += len(run.crashes)
    return verdict


def report(name, ctx, run, verdict, extra) -> dict:
    out = run.outcomes
    failed = out.failed + verdict.pin_failed_ops
    total_failed = max(1, out.failed + out.refused)
    return {
        "workload": name,
        "provenance": provenance(ctx.seed),
        "samples": run.ops,
        "latency_samples": len(run.latencies),
        "failed_ratio": (failed + out.refused) / out.attempted,
        "refused_ratio": out.refused / out.attempted,
        "failed_unexpected": failed,
        "unknown_ratio": out.unknown / out.attempted,
        "repeat_share": run.repeats / run.ops,
        "failure_families": {k: round(v / total_failed, 4)
                             for k, v in out.families.most_common()},
        "checked_answers": verdict.checked,
        "check_violations": verdict.violations,
        "violations": verdict.examples,
        "pin_failures": verdict.pin_failures[:20],
        "newly_resolved": verdict.newly_resolved,
        **extra,
    }


# ---------------------------------------------------------------------------
# modes


def end_to_end(name: str, ctx: Context, seconds: float):
    setup = measure_setup()
    op, finish = make_op(ctx, name)
    queries = ctx.queries(name)
    seen = None if name == "cli-single" else set()
    warm_up(op, queries, WARMUP_OPS[name], seen)
    run = measure(op, finish, queries, new_outcomes(name), block=BLOCK[name],
                  seconds=seconds, seen=seen)
    usage = resource.RUSAGE_CHILDREN if name == "cli-single" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024
    setup += measure_setup()  # before and after, to spread outside load
    verdict = check_run(ctx, run)
    lat_ms = [x * 1000 for x in run.latencies]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (run.rate(), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    rep = report(name, ctx, run, verdict, {"setup_samples": len(setup)})
    return metrics, rep, run, verdict


def traced(name: str, ctx: Context, seconds: float):
    import snf

    count = max(1, round(TRACE_OPS_PER_S[name] * seconds))
    interp_ms = _median_wall([sys.executable, "-c", "pass"]) * 1000
    imp_ms = import_ms()
    load_ms = _median_load_ms()
    snf_us, snf_ok = snf.bench(ctx.seed)

    op, finish = make_op(ctx, name)
    seen = None if name == "cli-single" else set()
    warm_up(op, ctx.queries(name), WARMUP_OPS[name], seen)
    plain = measure(op, finish, ctx.queries(name), new_outcomes(name), block=BLOCK[name],
                    count=count, seen=seen)
    verdict = check_run(ctx, plain)
    if not snf_ok:
        verdict.violations += 1
        verdict.examples.append("smith_normal_form returned an invalid result")

    if name == "cli-single":
        summary, spans, wall = _traced_cli(ctx, count)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            run = measure(op, finish, ctx.queries(name), new_outcomes(name),
                          block=BLOCK[name], count=count, span=tracer.span)
        finally:
            tracer.uninstall()
        summary, spans, wall = tracer.summary(), tracer.spans, run.wall

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}.json").write_text(json.dumps(
        {"workload": name, "provenance": provenance(ctx.seed),
         "summary": summary, "spans": spans}), "utf-8")

    validate_checks = _validate_check_counts(plain)
    metrics = layer_metrics(summary)
    metrics.update({
        "cli.interpreter_ms": (interp_ms, "ms"),
        "cli.import_ms": (imp_ms, "ms"),
        "homotopy_db.load_database.ms": (load_ms, "ms"),
        "abelian.smith_normal_form.us": (snf_us, "us"),
        "trace.ops": (count, "count"),
        "trace.overhead_pct": ((wall / plain.wall - 1) * 100, "%"),
        **{k: (v, "count") for k, v in validate_checks.items()},
    })
    rep = report(name, ctx, plain, verdict, {})
    metrics.update({
        "workload.repeat_share": (rep["repeat_share"], "ratio"),
        "outcome.failed_ratio": (rep["failed_ratio"], "ratio"),
        "outcome.unknown_ratio": (rep["unknown_ratio"], "ratio"),
        "outcome.newly_resolved": (rep["newly_resolved"], "count"),
    })
    return metrics, rep, plain, verdict


def _median_load_ms(reps: int = 5) -> float:
    from coincalc import load_default_database

    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        load_default_database()
        walls.append((time.perf_counter() - start) * 1000)
    return statistics.median(walls)


def _traced_cli(ctx: Context, count: int):
    """The traced pass of ``cli-single``: each child runs under the
    tracer and writes its summary; the summaries are added up."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "child-trace.json"
    queries = ctx.queries("cli-single")
    total = {"spans": {}, "counts": {}, "distinct_instances": 0}
    spans, wall = [], 0.0
    for _ in range(count):
        q = next(queries)
        start = time.perf_counter()
        run_cli(q, traced_out=path)
        wall += time.perf_counter() - start
        part = json.loads(path.read_text("utf-8"))
        for span, agg in part["spans"].items():
            mine = total["spans"].setdefault(span, dict.fromkeys(agg, 0))
            for k, v in agg.items():
                mine[k] += v
        for k, v in part["counts"].items():
            total["counts"][k] = total["counts"].get(k, 0) + v
        total["distinct_instances"] += part["distinct_instances"]
        spans.append(part["spans_raw"])
    path.unlink(missing_ok=True)
    return total, spans, wall


def _validate_check_counts(run: Run) -> dict:
    """Checks per ``validate-db`` run, in all and by kind."""
    kinds = ("exactness", "stable-kernel", "case-exclusivity")
    counts = dict.fromkeys(["validate.checks"] + [f"validate.checks.{k}" for k in kinds], 0)
    for query, outcome, answer, _count in run.outcomes.records.values():
        if query[0] == "validate-db" and answer is not None:
            counts["validate.checks"] = len(answer["checks"])
            for kind in kinds:
                counts[f"validate.checks.{kind}"] = sum(
                    1 for c in answer["checks"] if c[0] == kind)
    return counts


def layer_metrics(summary: dict) -> dict:
    spans, counts = summary["spans"], summary["counts"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    builds = counts.get("coincidence.classifier_builds", 0)
    distinct = summary["distinct_instances"]
    exact_calls = span("fibration.exactness_report", "calls")
    out = {"cli.main.self_ms": (span("cli.main", "self_ms"), "ms")}
    for name in ("fibration.pi_projective", "fibration.boundary_kernel",
                 "fibration.suspended_boundary_kernel",
                 "coincidence.exclusivity_violations"):
        out[f"{name}.calls"] = (span(name, "calls"), "count")
        out[f"{name}.self_ms"] = (span(name, "self_ms"), "ms")
    for name in ("homotopy_db.lookups", "coincidence.classifier_builds",
                 "coincidence.exclusivity_violations.pairs",
                 "abelian.subgroup_builds", "abelian.kernel.calls",
                 "abelian.direct_sum.calls", "abelian.contains.calls",
                 "abelian.element_builds"):
        out[name] = (counts.get(name, 0), "count")
    out["coincidence.distinct_instances"] = (distinct, "count")
    out["coincidence.build_reuse_ratio"] = (distinct / builds if builds else 0.0,
                                            "ratio")
    out["fibration.exactness_report.ms"] = (
        span("fibration.exactness_report", "total_ms") / exact_calls
        if exact_calls else 0.0, "ms")
    out["trace.spans"] = (sum(a["calls"] for a in spans.values()), "count")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
        ctx = Context(args.seed)
        mode = traced if args.trace else end_to_end
        metrics, rep, run, verdict = mode(args.workload, ctx, args.seconds)
    except GuardError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    rep["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(rep, sort_keys=True))
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": run.outcomes.attempted,
        "failed": run.outcomes.failed + verdict.pin_failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
