"""The benchmark's inputs, generated from the run's seed.

Every dataset spec, request line and graphr_run argument list a run
sends comes from here; the programs see nothing else of the seed.
"""

import json
import random

WORKLOADS = ["spmv", "pagerank", "bfs", "sssp", "wcc", "cf"]
GRAPHR_FAMILY = ["graphr", "multinode", "outofcore"]

# Paper Table 3, at 1/256 of the paper's edge counts.
TABLE3 = ["WV", "SD", "AZ", "WG", "LJ", "OK", "NF"]
TABLE3_SCALE = "256"
# Fig. 17/18 settings: fixed-iteration PageRank, feature length 32.
FIG_PARAMS = ["--param", "iterations=20", "--param", "tolerance=0",
              "--param", "features=32", "--param", "epochs=3"]
FIG17_GEOMEAN_SPEEDUP = 16.01
FIG18_GEOMEAN_ENERGY_SAVING = 33.82

WARM_GRAPH = "rmat:vertices=65536,edges=1048576,seed={}"
CHURN_GRAPH = "rmat:vertices=16384,edges=262144,seed={}"
CHURN_GRAPHS = 48      # > the PlanCache's 32 entries: every run misses
CHURN_PREPARE_EVERY = 10
FUNCTIONAL_GRAPH = "rmat:vertices=16384,edges=65536,seed={}"

SERVE_JOBS = 2
SERVE_CONNS = 2
SWEEP_JOBS = 4


def draw_seeds(tag, seed, count):
    return random.Random(f"{tag}:{seed}").sample(range(1, 2**31), count)


def table3_seed(seed):
    """Generator seed of the Table-3 datasets: shared by every
    workload, so the sim_* metrics of one seed agree everywhere."""
    return draw_seeds("table3", seed, 1)[0]


class SweepRepro:
    """The Fig. 17 sweep (all workloads x backends over the seven
    Table-3 datasets), then a functional-datapath sweep."""

    name = "sweep_repro"

    def __init__(self, seed):
        self.seed = seed
        self.graph_seed = table3_seed(seed)
        self.functional_graph = FUNCTIONAL_GRAPH.format(
            draw_seeds("functional", seed, 1)[0])

    def table3_args(self, datasets=TABLE3):
        args = []
        for name in datasets:
            args += ["--dataset", name]
        return args + ["--scale", TABLE3_SCALE, "--seed", str(self.graph_seed)]

    def fig_args(self, jobs, datasets=TABLE3):
        return ["--algo", "all", "--backend", "all", *self.table3_args(datasets),
                *FIG_PARAMS, "--jobs", str(jobs)]

    def functional_args(self, jobs):
        return ["--functional", "--algo", "all", "--backend", "graphr",
                "--dataset", self.functional_graph, "--jobs", str(jobs)]

    def prepare_args(self, plan_dir):
        return ["prepare", *self.table3_args(), "--jobs", str(SWEEP_JOBS),
                "--plan-dir", str(plan_dir)]


def _line(obj):
    return json.dumps(obj, separators=(",", ":"))


class ServeWarm:
    """One 1M-edge graph; requests rotate through the 6 workloads x
    the 3 GraphR-family backends, every plan warm after setup."""

    name = "serve_warm"
    plan_dir = False

    def __init__(self, seed):
        self.seed = seed
        self.graph = WARM_GRAPH.format(draw_seeds("warm", seed, 1)[0])
        # A fixed order: which two requests overlap on the two
        # connections then does not change with the seed.
        self.rotation = [(w, b) for w in WORKLOADS for b in GRAPHR_FAMILY]

    def setup_lines(self):
        return [_line({"id": f"s{i}", "type": "run", "workload": w,
                       "backend": b, "dataset": self.graph})
                for i, (w, b) in enumerate(self.rotation)]

    def line(self, k):
        w, b = self.rotation[k % len(self.rotation)]
        return _line({"id": f"r{k}", "type": "run", "workload": w,
                      "backend": b, "dataset": self.graph})

    def reference_args(self):
        return ["--algo", ",".join(WORKLOADS),
                "--backend", ",".join(GRAPHR_FAMILY),
                "--dataset", self.graph, "--jobs", str(SWEEP_JOBS)]

    def expected(self, cells):
        """(workload, backend, dataset) -> reference cell, from the
        reference report's cells in spec order."""
        keys = [(w, b, self.graph) for w in WORKLOADS for b in GRAPHR_FAMILY]
        return dict(zip(keys, cells))

    def spec(self, line):
        req = json.loads(line)
        return req["type"], (req.get("workload"), req.get("backend"),
                             req.get("dataset") or req["datasets"][0])


class ServeStoreChurn(ServeWarm):
    """48 prepared 262k-edge graphs cycled round-robin (PageRank and
    SSSP on `graphr`); every 10th request prepares a new graph."""

    name = "serve_store_churn"
    plan_dir = True

    def __init__(self, seed):
        self.seed = seed
        self.graphs = [CHURN_GRAPH.format(s)
                       for s in draw_seeds("churn", seed, CHURN_GRAPHS)]

    def fresh_graph(self, i):
        """The i-th graph the daemon has never seen."""
        return CHURN_GRAPH.format(draw_seeds(f"fresh{i}", self.seed, 1)[0])

    @staticmethod
    def _prepare(request_id, graph):
        # The run requests never need the symmetrised plan.
        return _line({"id": request_id, "type": "prepare",
                      "datasets": [graph], "symmetrized": False})

    def setup_lines(self):
        return [self._prepare(f"s{i}", g) for i, g in enumerate(self.graphs)]

    def line(self, k):
        if k % CHURN_PREPARE_EVERY == CHURN_PREPARE_EVERY - 1:
            return self._prepare(f"r{k}",
                                 self.fresh_graph(k // CHURN_PREPARE_EVERY))
        r = k - k // CHURN_PREPARE_EVERY
        workload = ("pagerank", "sssp")[(r // CHURN_GRAPHS) % 2]
        return _line({"id": f"r{k}", "type": "run", "workload": workload,
                      "backend": "graphr",
                      "dataset": self.graphs[r % CHURN_GRAPHS]})

    def reference_args(self):
        args = ["--algo", "pagerank,sssp", "--backend", "graphr"]
        for g in self.graphs:
            args += ["--dataset", g]
        return args + ["--jobs", str(SWEEP_JOBS)]

    def expected(self, cells):
        keys = [(w, "graphr", g) for g in self.graphs
                for w in ("pagerank", "sssp")]
        return dict(zip(keys, cells))
