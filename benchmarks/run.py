#!/usr/bin/env python3
"""Closed-loop benchmark of the distbalance command line.

    python3 benchmarks/run.py --workload {check,closure,oracle,oracle_mt}
                              [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --selftest

Run from a source checkout: the package is imported from ``src/`` next to
this directory, and the run fails when it is missing.  One client calls
``distbalance.cli.main(argv)`` in-process, op after op, over the workload's
seeded round of edge-list files (see workloads.py), and checks every answer
against a reference that does not use distbalance (see reference.py).
The run is pinned to one CPU, and its times are scaled by a calibration
kernel run between the ops (see ``calibrate``).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and reports per-layer self times
and counts (see tracer.py).  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; a results file with the
same numbers and their provenance goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference as R
import tracer as T
import workloads as W

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = "benchmarks/.work"
RESULTS = BENCH_DIR / "results"

MIN_OPS = 100        # p90 then has at least ten samples beyond it
MAX_LOOP_S = 120.0   # no new round starts past this, whatever --seconds says
SETUP_REPS = 11
CAL_PER_PROBE = 3
DEFAULT_SEED = 1
HELD_OUT_SEED = 4099  # for confirming a claim on a seed not used to make it

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# Calibration kernel: all-pairs BFS on a fixed 10x10 torus, plain Python
# like distbalance itself.  Reported times are scaled by CAL_REF_S over the
# kernel's median time in runs of it just before and after each timed op,
# so they read as times on a machine where the kernel takes CAL_REF_S; a
# shared host's speed, which drifts by tens of percent, cancels out of them.
_CAL_ADJ = R.adjacency(*R.torus(10, 10))
CAL_REF_S = 0.002


def calibrate() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    for source in range(len(_CAL_ADJ)):
        R.bfs(_CAL_ADJ, source)
    return time.perf_counter() - start


def scaled(elapsed: float, cals: list[float]) -> float:
    return elapsed * CAL_REF_S / statistics.median(cals)


# a fresh interpreter that imports the CLI from src/ and runs one op
_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from distbalance.cli import main; sys.exit(main(sys.argv[2:]))")


@dataclass
class Round:
    latencies: list[float] = field(default_factory=list)      # scaled
    raw_latencies: list[float] = field(default_factory=list)  # wall time
    faults: list[str] = field(default_factory=list)
    emit_bytes: int = 0


def _parse_report(text: str) -> dict | None:
    try:
        report = json.loads(text)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def run_op(cli, op: W.Op, rnd: Round) -> float:
    """Call the CLI once; record any fault and the bytes it wrote, return its wall time."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:      # argparse usage errors
        rc = exc.code
    except Exception as exc:       # an op that raises is a failed op, not a crash
        elapsed = time.perf_counter() - start
        rnd.faults.append(f"{op.label}: raised {exc!r}")
        return elapsed
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    report = _parse_report(text)
    fault = op.fault(rc, report)
    if fault is not None:
        rnd.faults.append(f"{op.label}: {fault}")
    # the timing value is the report's one nondeterministic field
    timing = len(repr(report["timing"])) if report and "timing" in report else 0
    rnd.emit_bytes += len(text) - timing
    return elapsed


def run_round(cli, ops: list[W.Op], tracer: T.Tracer | None = None) -> Round:
    """Each op once, in order, from the same collected heap as a fresh process,
    with the calibration kernel run between ops."""
    rnd, cals = Round(), [calibrate()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        gc.collect()
        rnd.raw_latencies.append(run_op(cli, op, rnd))
        cals.append(calibrate())
    # op i ran between kernel runs i and i + 1; take two on each side
    rnd.latencies = [scaled(elapsed, cals[max(0, i - 1):i + 3])
                     for i, elapsed in enumerate(rnd.raw_latencies)]
    return rnd


def _keep_going(rounds: int, ops: int, elapsed: float, seconds: float,
                min_traced: int = 0) -> bool:
    """Whether to start another round of a loop that has run ``rounds``."""
    next_end = elapsed + elapsed / rounds
    if next_end > MAX_LOOP_S:
        return False
    return ops < MIN_OPS or rounds < min_traced or next_end <= seconds


def measure_setup(op: W.Op) -> tuple[float, list[str]]:
    """Scaled median wall time of fresh interpreters that import the CLI and run ``op``.

    The probes inherit the run's single CPU, and the calibration kernel
    runs between them; the figure is the probes' median over the kernel's
    median, times CAL_REF_S.  ``-I -S`` keeps site-packages and PYTHON*
    variables out, so it is distbalance's own start-up, not the host's
    Python set-up.
    """
    times, cals, faults = [], [calibrate() for _ in range(CAL_PER_PROBE)], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", _PROBE, "src", *op.argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        cals += [calibrate() for _ in range(CAL_PER_PROBE)]
        fault = op.fault(proc.returncode, _parse_report(proc.stdout))
        if fault is not None:
            faults.append(f"setup {op.label}: {fault} {proc.stderr.strip()[-200:]}")
    raw = statistics.median(times)
    print(f"setup: {SETUP_REPS} fresh interpreters, unscaled median {raw:.6g} s, "
          f"calibration kernel median {statistics.median(cals) * 1e3:.4g} ms")
    return raw * CAL_REF_S / statistics.median(cals), faults


def end_to_end(cli, wl: W.Workload, seconds: float) -> tuple[dict, int, list[str], list]:
    """Whole rounds until --seconds; the metrics and the rounds' op latencies."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, wl.ops))
        if not _keep_going(len(rounds), len(rounds) * len(wl.ops),
                           time.perf_counter() - start, seconds):
            break
    lat = [x for r in rounds for x in r.latencies]
    raw = [x for r in rounds for x in r.raw_latencies]
    faults = [f for r in rounds for f in r.faults]
    attempted, failed = len(lat), len(faults)
    metrics = {
        "ops_per_s": (attempted - failed) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "ok_rate": (attempted - failed) / attempted,
    }
    print(f"timed loop: {len(rounds)} rounds of {len(wl.ops)} ops = {attempted} samples, "
          f"{sum(raw):.3f} s inside the CLI, {sum(lat):.3f} s scaled")
    print(f"unscaled: ops_per_s {(attempted - failed) / sum(raw):.6g} 1/s, "
          f"op_p50_ms {statistics.median(raw) * 1e3:.6g} ms, "
          f"op_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.6g} ms")
    return metrics, attempted, faults, rounds


def per_layer(cli, wl: W.Workload, seconds: float) -> tuple[dict, int, list[str], list]:
    """Alternate untraced and traced rounds; per-layer metrics of the traced ones.

    Times are medians over the traced rounds; counts come from the first
    traced round, and any later round that differs in a count is a failure.
    """
    untraced_s = traced_s = 0.0
    attempted, faults, layer_rounds, first_spans = 0, [], [], None
    start = time.perf_counter()
    while True:
        plain = run_round(cli, wl.ops)
        tracer = T.Tracer()
        tracer.install()
        try:
            traced = run_round(cli, wl.ops, tracer)
        finally:
            tracer.remove()
        untraced_s += sum(plain.latencies)
        traced_s += sum(traced.latencies)
        attempted += len(plain.latencies) + len(traced.latencies)
        faults += plain.faults + traced.faults
        metrics = T.layer_metrics(tracer.spans)
        metrics["cli.emit_bytes"] = traced.emit_bytes
        layer_rounds.append(metrics)
        if first_spans is None:
            first_spans = tracer.spans
        if not _keep_going(len(layer_rounds), attempted, time.perf_counter() - start,
                           seconds, min_traced=2):
            break
    first = layer_rounds[0]
    for i, later in enumerate(layer_rounds[1:], start=2):
        diff = [f"{name} {later[name]} vs {first[name]}"
                for name in T.DETERMINISTIC if later[name] != first[name]]
        if diff:
            faults.append(f"traced round {i} differs from round 1: {', '.join(diff)}")
    out = {name: first[name] if name in T.DETERMINISTIC
           else statistics.median(r[name] for r in layer_rounds)
           for name, _, _ in T.LAYER_METRICS}
    out["trace.overhead_frac"] = traced_s / untraced_s - 1
    print(f"traced loop: {len(layer_rounds)} untraced and {len(layer_rounds)} traced rounds "
          f"of {len(wl.ops)} ops; per-layer values are per round")
    return out, attempted, faults, first_spans


def oracle_table(spans: list[T.Span], ops: list[W.Op]) -> list[dict]:
    """One row per search: the instance, the table value and what the search did."""
    rows = []
    for s in spans:
        if s.name != "search.search_minimum_additions" or s.info is None:
            continue
        family, m = T.search_family(s)
        formula = (ops[s.op].expected["k"] if family == "other"
                   else R.min_additions(family, m))
        rows.append({"family": family, "m": m, "n": s.info["graph"].n,
                     "formula": formula, "search": s.info["k"], "mode": s.info["mode"],
                     "explored": s.info["explored"], "seconds": s.end - s.start})
    order = {tag: i for i, tag in enumerate(R.FAMILIES + ("other",))}
    return sorted(rows, key=lambda r: (r["n"], order[r["family"]], r["m"], r["mode"]))


def print_oracle_table(rows: list[dict]) -> None:
    print(f"{'family':<8}{'m':>3}{'n':>4}{'formula':>9}{'search':>8}"
          f"{'mode':>9}{'explored':>10}{'seconds':>9}")
    for r in rows:
        flag = "" if r["search"] == r["formula"] else "  MISMATCH"
        print(f"{r['family']:<8}{r['m']:>3}{r['n']:>4}{r['formula']:>9}{r['search']:>8}"
              f"{r['mode']:>9}{r['explored']:>10}{r['seconds']:>9.4f}{flag}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int, trace: int, version: str, cpus: set[int]) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "distbalance_version": version,
        "seed": seed,
        "trace": bool(trace),
    }


def import_cli():
    """distbalance.cli from this checkout's src/, never from site-packages."""
    if not (SRC / "distbalance" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'distbalance'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import distbalance
    import distbalance.cli as cli
    if not Path(distbalance.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported distbalance from {distbalance.__file__}, not {SRC}")
    return cli, distbalance.__version__


def bench(workload: str, seed: int, seconds: float, trace: int) -> int:
    cli, version = import_cli()
    os.chdir(ROOT)
    workdir = f"{WORK}/{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = W.build(workload, seed, workdir)
    # The run, its threads and its calibration stay on one CPU, whose speed
    # the kernel then tracks.  Threads spread over the two vCPUs of a shared
    # host made a thread-pool search's time vary by +-40% from op to op.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    setup_s, faults = measure_setup(wl.warmup)
    warm = Round()
    run_op(cli, wl.warmup, warm)
    faults += warm.faults
    gc.freeze()  # the benchmark's own inputs and references stay out of the collector
    result = {"provenance": provenance(seed, trace, version, cpus), "workload": workload}
    if trace:
        metrics, attempted, loop_faults, spans = per_layer(cli, wl, seconds)
        units = {name: unit for name, unit, _ in T.LAYER_METRICS}
        if workload.startswith("oracle"):
            result["oracle_table"] = oracle_table(spans, wl.ops)
            print_oracle_table(result["oracle_table"])
        result["spans"] = [[s.name, s.start, s.end, s.parent, s.op] for s in spans]
    else:
        metrics, attempted, loop_faults, rounds = end_to_end(cli, wl, seconds)
        result["samples"] = attempted
        result["cal_ref_s"] = CAL_REF_S
        result["op_latencies_s"] = {op.label: [r.latencies[i] for r in rounds]
                                    for i, op in enumerate(wl.ops)}
        result["op_raw_latencies_s"] = {op.label: [r.raw_latencies[i] for r in rounds]
                                        for i, op in enumerate(wl.ops)}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    faults += loop_faults
    attempted += 1 + SETUP_REPS  # the warm-up op in-process and in each probe
    line = {
        "correct": not faults,
        "attempted": attempted,
        "failed": len(faults),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    result.update(line, faults=faults)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for fault in faults[:20]:
        print(f"FAILED {fault}")
    print(f"error_rate: {len(faults) / attempted:.6f} ({len(faults)} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name:<28}{value:>16.6g} {units[name]}")
    print(f"provenance: {json.dumps(result['provenance'])}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


def selftest() -> int:
    """Check the references, and that a wrong expected value counts as an error.

    Every workload's warm-up op and first three ops must pass, and each of
    them must fail once its expected answer is corrupted.  The closed forms
    and the paper's table are compared with the definition and with an
    exhaustive search that shares no code with distbalance.
    """
    cli, _ = import_cli()
    os.chdir(ROOT)
    problems = []
    for name in W.WORKLOADS:
        wl = W.build(name, DEFAULT_SEED, f"{WORK}/selftest/{name}")
        ops = [wl.warmup] + wl.ops[:3]
        good = run_round(cli, ops)
        bad = run_round(cli, [W.corrupted(op) for op in ops])
        rate = len(bad.faults) / len(ops)
        print(f"{name}: error_rate {len(good.faults) / len(ops):.2f} as built, "
              f"{rate:.2f} with every expected value corrupted")
        problems += good.faults
        if len(bad.faults) != len(ops):
            problems.append(f"{name}: {len(bad.faults)} of {len(ops)} corrupted ops caught")
    shutil.rmtree(f"{WORK}/selftest", ignore_errors=True)
    closed_forms = [
        ("K_9", R.complete(9), R.szeged_complete(9)),
        ("C_9", R.cycle(9), R.szeged_cycle(9)),
        ("C_10", R.cycle(10), R.szeged_cycle(10)),
        ("Q_4", R.hypercube(4), R.szeged_hypercube(4)),
        ("T_3x5", R.torus(3, 5), R.szeged_torus(3, 5)),
        ("T_4x6", R.torus(4, 6), R.szeged_torus(4, 6)),
    ]
    rng = random.Random(DEFAULT_SEED)
    for i in range(5):
        tree = R.random_tree(12 + i, rng)
        closed_forms.append((f"tree_{12 + i}", tree, R.szeged_tree(*tree)))
    for name, (n, edges), value in closed_forms:
        if R.szeged_by_definition(n, edges) != value:
            problems.append(f"Szeged closed form of {name} disagrees with the definition")
    for tag, ms in (("star", range(1, 6)), ("s2", range(2, 5)), ("s22", range(2, 5)),
                    ("s3", range(3, 5)), ("broom", range(3, 5))):
        for m in ms:
            n, edges = R.family_tree(tag, m)
            if R.classify(n, edges) != (tag, m):
                problems.append(f"{tag} m={m} classifies as {R.classify(n, edges)}")
            if R.search_minimum(n, edges) != R.min_additions(tag, m):
                problems.append(f"table value of {tag} m={m} disagrees with the search")
    for name, (n, edges, k) in W.OTHER_GRAPHS.items():
        if R.classify(n, edges)[0] != "other" or R.search_minimum(n, edges) != k:
            problems.append(f"reference minimum of {name} is not {k}")
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def write_baseline() -> int:
    """Merge the default seed's results files into benchmarks/baseline.json."""
    runs = {}
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            data = json.loads((RESULTS / f"{workload}-seed{DEFAULT_SEED}-trace{trace}.json")
                              .read_text())
            keep = ("provenance", "correct", "attempted", "failed", "metrics", "oracle_table")
            runs[f"{workload}-trace{trace}"] = {k: data[k] for k in keep if k in data}
    baseline = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "runs": runs}
    (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the references and that a corrupted one is caught")
    parser.add_argument("--write-baseline", action="store_true",
                        help="merge the default seed's results files into baseline.json")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.write_baseline:
        return write_baseline()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
