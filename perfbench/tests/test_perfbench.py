"""The benchmark's own tests.

  python3 -m unittest discover -s perfbench/tests

The last test builds graphr_run (as a benchmark run would) and runs
the Fig. 17 cells twice; the others need no build.
"""

import json
import socket
import sys
import tempfile
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import layers  # noqa: E402
import run  # noqa: E402
import runs  # noqa: E402
import workloads as W  # noqa: E402
from build import ROOT, build  # noqa: E402
from checks import graphr_run, minify, run_response, split_results  # noqa: E402
from serve import ResponseChecker, closed_loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def fake_trace():
    """A traced replay of one request: parse, queue, a backend run
    with a plan hit and an algorithm, serialise."""
    spans = [
        ["request", 1, 0, 1, 0, 100_000_000, 0, 0],
        ["service.parse", 2, 1, 1, 0, 1_000_000, 0, 0],
        ["pool.wait", 3, 1, 1, 1_000_000, 2_000_000, 1, 0],
        ["driver.sweep", 4, 1, 1, 2_000_000, 98_000_000, 1, 0],
        ["driver.resolve", 5, 4, 1, 2_000_000, 50_000_000, 1, 0],
        ["backend.graphr", 6, 4, 1, 50_000_000, 98_000_000, 1, 0],
        ["engine.plan", 7, 6, 1, 50_000_000, 60_000_000, 1, 1],
        ["engine.fingerprint", 8, 7, 1, 50_000_000, 59_000_000, 1, 0],
        ["algorithms.pagerank", 9, 6, 1, 60_000_000, 90_000_000, 1, 0],
        ["service.serialize", 10, 1, 1, 98_000_000, 99_000_000, 1, 0],
    ]
    counters = {"counters_before": {}, "counters_after": {
        "plan_cache.hits": 3, "plan_cache.misses": 1}}
    passes = [dict(counters, latency_ms=[100.0], wall_s=0.1)
              for _ in range(3)]
    return {"spans": spans, "passes": passes}


class MetricNames(unittest.TestCase):
    def test_per_layer_metrics_are_declared(self):
        metrics, _ = layers.layer_metrics(fake_trace(), jobs=2)
        # The trace runners add these two; run.py adds error_rate.
        measured = set(metrics) | {"net.transport_ms", "store.bytes_per_edge",
                                   "error_rate"}
        self.assertEqual(measured, set(PER_LAYER))

    def test_printed_metrics_are_exactly_the_declared_ones(self):
        outcome = runs.Outcome()
        outcome.metrics = {name: 1.5 for name in END_TO_END}
        outcome.metrics["undeclared_ms"] = 2.0
        outcome.count(10, 0)
        result = run.result_line(SPEC, 0, outcome)
        self.assertEqual(list(result["metrics"]), END_TO_END)
        del outcome.metrics["setup_s"]
        with self.assertRaises(run.BenchError):
            run.result_line(SPEC, 0, outcome)

    def test_self_time_and_layers(self):
        metrics, totals = layers.layer_metrics(fake_trace(), jobs=2)
        self.assertAlmostEqual(metrics["driver.resolve_ms"], 48.0)
        self.assertAlmostEqual(metrics["engine.plan_hit_ms"], 1.0)
        # Backend 48 ms minus plan 10 ms and algorithm 30 ms.
        self.assertAlmostEqual(metrics["engine.cost_model_ms"], 8.0)
        self.assertAlmostEqual(metrics["service.queue_wait_ms"], 1.0)
        # Root 100 ms minus parse, wait, sweep, serialise (0..99 ms).
        self.assertAlmostEqual(metrics["trace.unattributed_ms"], 1.0)
        self.assertAlmostEqual(metrics["engine.plan_hit_ratio"], 0.75)
        self.assertEqual(metrics["trace.overhead_frac"], 0.0)


class Inputs(unittest.TestCase):
    def test_seed_changes_every_input(self):
        a, b = W.ServeWarm(1), W.ServeWarm(2)
        self.assertNotEqual(a.graph, b.graph)
        self.assertEqual(a.line(5), W.ServeWarm(1).line(5))
        c, d = W.ServeStoreChurn(1), W.ServeStoreChurn(2)
        self.assertTrue(set(c.graphs).isdisjoint(d.graphs))
        self.assertNotEqual(c.fresh_graph(0), d.fresh_graph(0))
        e, f = W.SweepRepro(1), W.SweepRepro(2)
        self.assertNotEqual(e.fig_args(4), f.fig_args(4))
        self.assertNotEqual(e.functional_args(4), f.functional_args(4))
        self.assertNotEqual(e.prepare_args("p"), f.prepare_args("p"))

    def test_churn_stream_shape(self):
        wl = W.ServeStoreChurn(7)
        lines = [json.loads(wl.line(k)) for k in range(200)]
        prepares = [r for r in lines if r["type"] == "prepare"]
        self.assertEqual(len(prepares), 20)
        fresh = {r["datasets"][0] for r in prepares}
        self.assertEqual(len(fresh), 20)
        self.assertTrue(fresh.isdisjoint(wl.graphs))
        runs_ = [r for r in lines if r["type"] == "run"]
        # 48 distinct graphs between repeats: more than the plan cache.
        first = [r["dataset"] for r in runs_[:W.CHURN_GRAPHS]]
        self.assertEqual(len(set(first)), W.CHURN_GRAPHS)


class FakeDaemon:
    """Loopback JSONL server answering each line with answer(line)."""

    def __init__(self, answer):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.answer = answer
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self.handle, args=(conn,),
                             daemon=True).start()

    def handle(self, conn):
        with conn, conn.makefile("rb") as lines:
            for raw in lines:
                reply = self.answer(raw.decode().rstrip("\n"))
                if reply is None:
                    return  # drop the connection: a failed request
                conn.sendall(reply.encode() + b"\n")

    def close(self):
        self.sock.close()


class ErrorCounting(unittest.TestCase):
    def setUp(self):
        self.wl = W.ServeWarm(3)
        cell = '{"workload":"%s","backend":"%s","dataset":"rmat","x":1}'
        self.expected = {(w, b, self.wl.graph): cell % (w, b)
                         for w in W.WORKLOADS for b in W.GRAPHR_FAMILY}

    def run_loop(self, answer, count=40):
        daemon = FakeDaemon(answer)
        try:
            done = closed_loop(daemon.port, self.wl.line, 2, count=count)
        finally:
            daemon.close()
        return runs.check_window(ResponseChecker(self.wl, self.expected),
                                 done, None)

    def reply(self, line):
        req = json.loads(line)
        key = (req["workload"], req["backend"], req["dataset"])
        return run_response(req["id"], self.expected[key])

    def test_correct_responses_pass(self):
        self.assertEqual(self.run_loop(self.reply), (40, 0))

    def test_wrong_response_is_counted(self):
        def answer(line):
            text = self.reply(line)
            return text.replace('"x":1', '"x":2') if '"r7"' in line else text
        self.assertEqual(self.run_loop(answer), (40, 1))

    def test_error_response_is_counted(self):
        def answer(line):
            if '"r3"' in line:
                return '{"id":"r3","ok":false,"error":"queue full"}'
            return self.reply(line)
        self.assertEqual(self.run_loop(answer), (40, 1))

    def test_dropped_connection_is_counted(self):
        attempted, failed = self.run_loop(
            lambda line: None if '"r5"' in line else self.reply(line))
        self.assertGreaterEqual(failed, 1)
        self.assertGreater(attempted, failed)


class Reports(unittest.TestCase):
    def test_minify_and_split(self):
        report = ('{\n  "results": [\n    {"a": "x y", "b": [1, 2]},\n'
                  '    {"c": "}\\""}\n  ]\n}\n')
        self.assertEqual(split_results(report),
                         ['{"a":"x y","b":[1,2]}', '{"c":"}\\""}'])
        self.assertEqual(minify('{ "k" : "a  b" }'), '{"k":"a  b"}')


class SimMetrics(unittest.TestCase):
    def test_sim_metrics_repeat_exactly(self):
        bins = build()
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            first = runs.sim_errors(runs.figure_cells(bins, 5, work))
            again = runs.sim_errors(runs.figure_cells(bins, 5, work))
            _, _, report = graphr_run(bins["run"],
                                      W.SweepRepro(5).fig_args(4),
                                      work / "sweep.json")
            # The serve workloads' figure cells and the sweep agree.
            sweep = runs.sim_errors(split_results(report))
        self.assertEqual(first, again)
        self.assertEqual(first, sweep)


if __name__ == "__main__":
    unittest.main()
