"""One benchmark run of a workload: untraced (end-to-end metrics) or
traced (per-layer metrics)."""

import json
import math
import statistics
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor

import workloads as W
from build import BenchError
from checks import cached, graphr_run, split_results
from layers import layer_metrics
from serve import ResponseChecker, closed_loop, start_and_warm

SETUP_REPEATS = 3


class Outcome:
    """What a run reports: metrics plus the attempted/failed counts."""

    def __init__(self):
        self.metrics = {}
        self.notes = {}
        self.attempted = 0
        self.failed = 0

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def percentile(values, q):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sim_errors(cells):
    """|geomean - paper| / paper in %, for Fig. 17 (GraphR-vs-CPU
    speedup) and Fig. 18 (energy saving), over the figures' 25 cells:
    PageRank/BFS/SSSP/SpMV on the six graphs and CF on Netflix."""
    by_key = {}
    for text in cells:
        c = json.loads(text)
        by_key[(c["workload"], c["backend"], c["dataset"])] = c
    speedups, savings = [], []
    for (w, b, d), g in by_key.items():
        if b != "graphr" or (w == "cf") != (d == "netflix"):
            continue
        if w not in ("pagerank", "bfs", "sssp", "spmv", "cf"):
            continue
        cpu = by_key[(w, "cpu", d)]
        speedups.append(cpu["seconds"] / g["seconds"])
        savings.append(cpu["joules"] / g["joules"])
    if len(speedups) != 25:
        raise BenchError(f"expected 25 Fig. 17 cells, found {len(speedups)}")
    return {
        "sim_speedup_err_pct": 100.0 * abs(geomean(speedups)
                                           - W.FIG17_GEOMEAN_SPEEDUP)
        / W.FIG17_GEOMEAN_SPEEDUP,
        "sim_energy_err_pct": 100.0 * abs(geomean(savings)
                                          - W.FIG18_GEOMEAN_ENERGY_SAVING)
        / W.FIG18_GEOMEAN_ENERGY_SAVING,
    }


def figure_cells(bins, seed, work):
    """Just the 25 Fig. 17/18 cells (GraphR and CPU) of this seed."""
    sweep = W.SweepRepro(seed)
    common = ["--backend", "graphr,cpu", *W.FIG_PARAMS,
              "--jobs", str(W.SWEEP_JOBS)]
    _, _, a = graphr_run(bins["run"], [
        "--algo", "pagerank,bfs,sssp,spmv",
        *sweep.table3_args(W.TABLE3[:-1]), *common], work / "fig.json")
    _, _, b = graphr_run(bins["run"], [
        "--algo", "cf", *sweep.table3_args(["NF"]), *common],
        work / "cf.json")
    return split_results(a) + split_results(b)


def sim_metrics(bins, seed, work):
    """The sim_* metrics of this seed, for workloads that do not run
    the whole figure sweep."""
    return cached(bins["run"], f"sim-{W.table3_seed(seed)}",
                  lambda: sim_errors(figure_cells(bins, seed, work)))


# ------------------------------------------------------------- serve

def serve_references(wl, bins, work, out, repeats=1):
    """One-shot graphr_run over the workload's run specs: the byte
    references, and the median wall time of @p repeats runs (the
    sweep_s of a serve workload). Every repeat must give the same
    report."""
    times, reports = [], []
    for _ in range(repeats):
        seconds, _, report = graphr_run(bins["run"], wl.reference_args(),
                                        work / "ref.json")
        times.append(seconds)
        reports.append(report)
    out.count(repeats, sum(1 for r in reports if r != reports[0]))
    return (statistics.median(times),
            ResponseChecker(wl, wl.expected(split_results(reports[0]))))


def check_window(checker, done, plan_dir):
    failed = sum(1 for line, response, _ in done.values()
                 if not checker.check(line, response, plan_dir))
    return len(done), failed


def measure_serve(wl, bins, seconds, work):
    """Three daemon lifetimes, each a setup and a third of the window:
    setup_s and peak_rss_mb are medians over the three, latencies are
    pooled."""
    out = Outcome()
    sweep_s, checker = serve_references(wl, bins, work, out, SETUP_REPEATS)
    out.metrics.update(sim_metrics(bins, wl.seed, work))
    out.metrics["sweep_s"] = sweep_s

    setups, peaks, latencies = [], [], []
    window = correct = 0.0
    for i in range(SETUP_REPEATS):
        plan_dir = work / f"plans{i}" if wl.plan_dir else None
        daemon, took, attempted, failed = start_and_warm(
            wl, bins, W.SERVE_JOBS, W.SERVE_CONNS, plan_dir, checker)
        out.count(attempted, failed)
        setups.append(took)
        try:
            t0 = time.perf_counter()
            done = closed_loop(daemon.port, wl.line, W.SERVE_CONNS,
                               deadline=t0 + seconds / SETUP_REPEATS)
            window += time.perf_counter() - t0
            peaks.append(daemon.peak_rss_mb())
        finally:
            daemon.stop()
        attempted, failed = check_window(checker, done, plan_dir)
        out.count(attempted, failed)
        correct += attempted - failed
        latencies += [lat * 1e3 for _, _, lat in done.values()]
    bad = checker.verify_artifacts(bins["run"], work / "ref-plans",
                                   W.SWEEP_JOBS)
    out.count(0, bad)
    if not latencies:
        raise BenchError("graphr_serve answered no request in the window")

    p95, beyond = percentile(latencies, 0.95)
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": p95,
        "throughput_rps": (correct - bad) / window,
        "peak_rss_mb": statistics.median(peaks),
    })
    out.notes["latency_p50_ms"] = f"n={len(latencies)}"
    out.notes["latency_p95_ms"] = f"n={len(latencies)}, {beyond} beyond"
    for name in ("setup_s", "peak_rss_mb", "sweep_s"):
        out.notes[name] = f"median of {SETUP_REPEATS}"
    return out


def run_trace_binary(bins, args):
    done = subprocess.run([str(bins["trace"]), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        raise BenchError("perfbench_trace failed: " + done.stdout[-2000:])


def trace_serve(wl, bins, seconds, work):
    """TCP for a third of the window, then the same request stream
    replayed in process: untraced, traced, untraced."""
    out = Outcome()
    _, checker = serve_references(wl, bins, work, out)
    plan_dir = work / "plans" if wl.plan_dir else None
    daemon, _, attempted, failed = start_and_warm(
        wl, bins, W.SERVE_JOBS, W.SERVE_CONNS, plan_dir, checker)
    out.count(attempted, failed)
    try:
        t0 = time.perf_counter()
        done = closed_loop(daemon.port, wl.line, W.SERVE_CONNS,
                           deadline=t0 + seconds / 3.0)
    finally:
        daemon.stop()
    out.count(*check_window(checker, done, plan_dir))
    lines = [done[k][0] for k in sorted(done)]
    count = len(lines)
    if not count:
        raise BenchError("graphr_serve answered no request in the window")

    (work / "setup.jsonl").write_text("\n".join(wl.setup_lines()) + "\n")
    (work / "stream.jsonl").write_text("\n".join(lines) + "\n")
    args = ["serve", "--jobs", str(W.SERVE_JOBS),
            "--conns", str(W.SERVE_CONNS),
            "--setup", str(work / "setup.jsonl"),
            "--stream", str(work / "stream.jsonl"),
            "--out", str(work / "trace.json")]
    if wl.plan_dir:
        args += ["--plan-dir", str(work / "trace-plans")]
    run_trace_binary(bins, args)
    trace = json.loads((work / "trace.json").read_text())

    for index, p in enumerate(trace["passes"]):
        pass_dir = work / "trace-plans" / f"pass{index}" if wl.plan_dir else None
        out.count(count, sum(1 for line, response in zip(lines, p["responses"])
                             if not checker.check(line, response, pass_dir)))
    out.count(0, checker.verify_artifacts(bins["run"], work / "ref-plans",
                                          W.SWEEP_JOBS))

    metrics, totals = layer_metrics(trace, W.SERVE_JOBS)
    # Paired by request: the TCP latency of line k minus its mean
    # untraced in-process latency.
    tcp_ms = [done[k][2] * 1e3 for k in sorted(done)]
    before, _, after = trace["passes"]
    metrics["net.transport_ms"] = statistics.median(
        t - (a + b) / 2 for t, a, b in zip(tcp_ms, before["latency_ms"],
                                           after["latency_ms"]))
    metrics["store.bytes_per_edge"] = checker.bytes_per_edge()
    out.metrics.update(metrics)
    if wl.plan_dir:
        runs = [k + 1 for k, line in enumerate(lines)
                if wl.spec(line)[0] == "run"]
        without = sum(1 for rid in runs if totals.get(rid, {}).get(
            "store.load_ms", 0.0) <= 0.0)
        out.notes["store.load_ms"] = (f"{without} of {len(runs)} run "
                                      "requests without a store load")
    out.notes["net.transport_ms"] = f"same {count} requests"
    return out


# ------------------------------------------------------------- sweep

def sweep_reference(wl, bins, work):
    """The cell references: serial (--jobs 1) one-shot runs of both
    sweeps, one process per dataset, in the sweep's dataset-major
    order."""
    def serial(i, args):
        return split_results(graphr_run(bins["run"], args,
                                        work / f"serial{i}.json")[2])

    def compute():
        slices = [wl.fig_args(1, [name]) for name in W.TABLE3]
        with ThreadPoolExecutor(W.SWEEP_JOBS) as pool:
            cells = list(pool.map(serial, range(len(slices) + 1),
                                  slices + [wl.functional_args(1)]))
        return [sum(cells[:-1], []), cells[-1]]
    return cached(bins["run"], f"sweep-{wl.seed}", compute)


def check_cells(reference, report):
    """(cells, mismatching cells) of one sweep report."""
    cells = split_results(report)
    if len(cells) != len(reference):
        return len(reference), len(reference)
    return len(cells), sum(1 for a, b in zip(cells, reference) if a != b)


def measure_sweep(wl, bins, seconds, work):
    out = Outcome()
    reference = sweep_reference(wl, bins, work)

    setups = []
    for i in range(SETUP_REPEATS):
        plan_dir = work / f"plans{i}"
        took, _, _ = graphr_run(bins["run"], wl.prepare_args(plan_dir))
        artifacts = len(list(plan_dir.glob("*.gplan")))
        out.count(1, 0 if artifacts == 2 * len(W.TABLE3) else 1)
        setups.append(took)

    passes, peaks, verified = [], [], 0
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        wall, peak = 0.0, 0.0
        for args, ref, name in ((wl.fig_args(W.SWEEP_JOBS), reference[0],
                                 "fig"),
                                (wl.functional_args(W.SWEEP_JOBS), reference[1],
                                 "func")):
            took, rss, report = graphr_run(bins["run"], args,
                                           work / f"{name}.json")
            cells, bad = check_cells(ref, report)
            out.count(cells, bad)
            verified += cells - bad
            wall += took
            peak = max(peak, rss)
            if name == "fig" and not passes:
                out.metrics.update(sim_errors(split_results(report)))
        passes.append(wall)
        peaks.append(peak)
    window = time.perf_counter() - t0

    p95, beyond = percentile(passes, 0.95)
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(passes),
        "latency_p50_ms": statistics.median(passes) * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "throughput_rps": verified / window,
        "peak_rss_mb": statistics.median(peaks),
    })
    out.notes["setup_s"] = f"median of {SETUP_REPEATS}"
    out.notes["sweep_s"] = f"median of {len(passes)} passes"
    out.notes["latency_p95_ms"] = f"n={len(passes)} passes, {beyond} beyond"
    out.notes["throughput_rps"] = "verified cells per second"
    return out


def trace_sweep(wl, bins, seconds, work):
    """Both sweeps in process, three times: untraced, traced,
    untraced."""
    out = Outcome()
    reference = sweep_reference(wl, bins, work)
    invocations = [wl.fig_args(W.SWEEP_JOBS), wl.functional_args(W.SWEEP_JOBS)]
    (work / "invocations.txt").write_text(
        "".join("\t".join(a) + "\n" for a in invocations))
    run_trace_binary(bins, ["sweep", "--invocations",
                            str(work / "invocations.txt"),
                            "--out", str(work / "trace.json")])
    trace = json.loads((work / "trace.json").read_text())
    for p in trace["passes"]:
        for ref, report in zip(reference, p["responses"]):
            out.count(*check_cells(ref, report))
    metrics, _ = layer_metrics(trace, W.SWEEP_JOBS, group_of=lambda rid: 0)
    metrics["net.transport_ms"] = 0.0
    metrics["store.bytes_per_edge"] = 0.0
    out.metrics.update(metrics)
    return out
