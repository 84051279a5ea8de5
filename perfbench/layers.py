"""Per-layer metrics from the traced replay (perfbench_trace output).

A span is [name, id, parent, rid, t0_ns, t1_ns, thread, attr]. Each
request's root span is named "request"; every other span of the
request carries its rid. A span's self time is its duration minus the
part of it that its child spans cover (children may run on other
threads, so coverage is the union of their intervals).

Per-request layer totals are summed over the request's spans; a
metric is the median over the requests that enter the layer (0 when
none does). For the sweep workload one request is one whole pass of
the workload (every invocation), matching the end-to-end metrics.
"""

import statistics

BACKEND_LAYER = {
    "backend.graphr": "graphr.node_ms",
    "backend.multinode": "graphr.multinode_ms",
    "backend.outofcore": "graphr.outofcore_ms",
    "backend.cpu": "baselines.cpu_ms",
    "backend.gpu": "baselines.gpu_ms",
    "backend.pim": "baselines.pim_ms",
}

# Inclusive-time layers: (metric, span name).
INCLUSIVE = [
    ("service.parse_ms", "service.parse"),
    ("service.serialize_ms", "service.serialize"),
    ("driver.resolve_ms", "driver.resolve"),
    ("engine.fingerprint_ms", "engine.fingerprint"),
    ("graph.prepare_ms", "graph.prepare"),
    ("store.load_ms", "store.load"),
    ("store.save_ms", "store.save"),
]

LAYER_METRICS = [m for m, _ in INCLUSIVE] + [
    "service.queue_wait_ms", "driver.resolve_calls",
    "engine.plan_hit_ms", "engine.cost_model_ms", "algorithms.trace_ms",
    "rram.functional_ms", "trace.unattributed_ms",
    *BACKEND_LAYER.values(),
]


class Span:
    __slots__ = ("name", "id", "parent", "rid", "t0", "t1", "attr",
                 "children")

    def __init__(self, rec):
        (self.name, self.id, self.parent, self.rid, self.t0, self.t1,
         _thread, self.attr) = rec
        self.children = []

    @property
    def ms(self):
        return (self.t1 - self.t0) / 1e6

    def self_ms(self):
        """Duration minus the union of the children's intervals."""
        covered, end = 0, self.t0
        for c in sorted(self.children, key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, self.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        return (self.t1 - self.t0 - covered) / 1e6


def build_tree(records):
    spans = {r[1]: Span(r) for r in records}
    for s in spans.values():
        parent = spans.get(s.parent)
        if parent is not None:
            parent.children.append(s)
    return spans


def _has_ancestor(span, spans, prefix):
    parent = spans.get(span.parent)
    while parent is not None:
        if parent.name.startswith(prefix):
            return True
        parent = spans.get(parent.parent)
    return False


def request_totals(records, group_of=lambda rid: rid):
    """{group: {metric: value}} of per-request layer totals."""
    spans = build_tree(records)
    totals = {}
    for s in spans.values():
        t = totals.setdefault(group_of(s.rid),
                              dict.fromkeys(LAYER_METRICS, 0.0))
        for metric, name in INCLUSIVE:
            if s.name == name:
                t[metric] += s.ms
        if s.name == "driver.resolve":
            t["driver.resolve_calls"] += 1
        elif s.name == "pool.wait" and spans.get(s.parent, s).name == "request":
            # The server's admission queue, not a sweep's cell queue.
            t["service.queue_wait_ms"] += s.ms
        elif s.name == "engine.plan" and s.attr == 1:
            t["engine.plan_hit_ms"] += s.self_ms()
        elif s.name.startswith("algorithms.") and not _has_ancestor(
                s, spans, "algorithms."):
            t["algorithms.trace_ms"] += s.ms
        elif s.name in BACKEND_LAYER:
            t["engine.cost_model_ms"] += s.self_ms()
            functional = s.attr == 1 and s.name in (
                "backend.graphr", "backend.multinode", "backend.outofcore")
            t["rram.functional_ms" if functional
              else BACKEND_LAYER[s.name]] += s.ms
        elif s.name == "request":
            t["trace.unattributed_ms"] += s.self_ms()
    return totals


def median_entered(totals, metric):
    values = [t[metric] for t in totals.values() if t[metric] > 0]
    return statistics.median(values) if values else 0.0


def backend_ms(records):
    """Total time inside Backend::run, summed over every cell."""
    return sum((r[5] - r[4]) / 1e6 for r in records
               if r[0] in BACKEND_LAYER)


def counter_delta(p, name):
    return p["counters_after"].get(name, 0) - p["counters_before"].get(name, 0)


def ratio(p, hits, misses):
    h = counter_delta(p, hits)
    total = h + sum(counter_delta(p, m) for m in misses)
    return h / total if total else 0.0


def layer_metrics(trace, jobs, group_of=lambda rid: rid):
    """Every per-layer metric except net.transport_ms and error_rate,
    from the traced pass (passes[1]) and the untraced passes around
    it."""
    before, traced, after = trace["passes"]
    records = trace["spans"]
    totals = request_totals(records, group_of)
    out = {m: median_entered(totals, m) for m in LAYER_METRICS}
    requests = max(1, len(totals))

    load_s = sum((r[5] - r[4]) / 1e9 for r in records if r[0] == "store.load")
    out["store.decoded_edges_per_s"] = (
        counter_delta(traced, "store.codec.decoded_edges") / load_s
        if load_s else 0.0)
    out["store.load_hit_ratio"] = ratio(
        traced, "store.load_hits", ["store.load_misses", "store.load_rejects"])
    out["engine.plan_hit_ratio"] = ratio(traced, "plan_cache.hits",
                                         ["plan_cache.misses"])
    out["algorithms.golden_hit_ratio"] = ratio(
        traced, "golden_cache.hits", ["golden_cache.misses"])
    out["graph.sorts"] = counter_delta(traced, "preprocess.sorts") / requests
    out["rram.mvm_rows"] = (
        counter_delta(traced, "crossbar.mvm_rows_processed") / requests)
    out["driver.pool_busy_frac"] = (
        backend_ms(records) / 1e3 / (jobs * traced["wall_s"]))
    untraced_ms = (sum(before["latency_ms"]) + sum(after["latency_ms"])) / 2
    out["trace.overhead_frac"] = sum(traced["latency_ms"]) / untraced_ms - 1.0
    return out, totals
