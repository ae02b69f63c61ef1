"""Metric math of the benchmark: percentiles, freshness, the exact-answer
oracle, the end-of-run audit, the /stats scraper and the correctness gate.

perfbench_loadgen writes raw records (one line per request, probe or batch);
everything that turns them into numbers lives here so that it can be tested
on hand-made inputs (see test_bench_lib.py).
"""

import bisect
import csv
import json
import math
import os
import statistics
from collections import deque

# Freshness probe values and the set-up and end markers (workload.h).
PROBE_VALUES = (1000001, 1000002, 1000003, 1000004, 1000005)
MARKER_VALUES = (2000003, 2000004)


# ---------------------------------------------------------------------------
# Percentiles.

def nearest_rank(n, q):
    """1-based rank of the q-th percentile of n samples (rounded so that
    99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of `values`.

    math.inf marks a failed request, which is slower than any limit, so it
    sorts last.  Returns None for an empty list.
    """
    if not values:
        return None
    return sorted(values)[nearest_rank(len(values), q) - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - nearest_rank(n, q) if n else 0


def highest_supported_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0, 50.0)):
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if samples_beyond(n, q) >= 10:
            return q
    return None


def median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Raw records.

def read_rows(path, convert=int):
    with open(path, newline="") as f:
        return [[convert(x) for x in row] for row in csv.reader(f) if row]


def load_queries(path):
    """(due, sent, done, ok, probe) per query, ns from the window start."""
    return [tuple(r) for r in read_rows(path)]


def load_ingest(path):
    """Ingest POST records as dicts, ns from the window start."""
    keys = ("due", "sent", "done", "target", "values", "probe_copies", "ok")
    return [dict(zip(keys, r)) for r in read_rows(path)]


def load_probes(path):
    """Probe bursts: sent, done, ok, and per probe value its exact count
    (ci_low) and the counting sample's sample_points, which tells whether
    the answers came from one epoch."""
    out = []
    for row in read_rows(path, float):
        n = (len(row) - 3) // 3
        counts = [row[3 + 3 * i] for i in range(n)]
        points = [row[5 + 3 * i] for i in range(n)]
        out.append({"sent": row[0], "done": row[1], "ok": row[2] == 1,
                    "counts": counts, "points": points})
    return out


def load_counts(path):
    return {v: n for v, n in read_rows(path)}


# ---------------------------------------------------------------------------
# Open-loop latency.

def query_latencies_us(queries, window_ns):
    """Latency of each query due inside the window, from its due time.

    A failed query counts as math.inf.  Returns (latencies, lateness), both
    in microseconds; lateness is how long after its due time the generator
    handed the request to the socket.
    """
    latencies, lateness = [], []
    for due, sent, done, ok, _probe in queries:
        if not 0 <= due < window_ns:
            continue
        latencies.append((done - due) / 1e3 if ok else math.inf)
        lateness.append(max(0, sent - due) / 1e3)
    return latencies, lateness


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def traffic_metrics(queries, ingest, window_ns, server_cpu_ns):
    """The window's query and ingest figures, each over the whole window.

    Latency medians pool every query (ack) due inside the window; rates and
    costs divide window totals: server CPU over the window by the queries
    answered or the values acked, and values acked by the window's wall
    time (on `firehose` the window is the bulk load).  A cost that falls in
    a few seconds of the window therefore counts in full.
    """
    latencies, _ = query_latencies_us(queries, window_ns)
    answered = sum(1 for lat in latencies if lat != math.inf)
    acked = sum(r["values"] for r in ingest
                if r["ok"] and 0 <= r["done"] <= window_ns)
    acks = [(r["done"] - r["sent"]) / 1e3 for r in ingest
            if 0 <= r["due"] < window_ns and r["ok"]]
    return {
        "query_p50_us": percentile(latencies, 50),
        "query_cpu_us": ratio(server_cpu_ns / 1e3, answered),
        "ingest_values_per_s": acked / (window_ns / 1e9),
        "ingest_cpu_ns": ratio(server_cpu_ns, acked),
        "ingest_ack_p50_us": percentile(acks, 50),
    }


def backlog_grew(samples, floor=100):
    """True when the open-loop backlog grew across the window: the mean
    outstanding count of the last quarter exceeds four times the first
    quarter's plus `floor` (a refresh stall queues tens of requests and
    then drains; a server that falls behind keeps queueing)."""
    if len(samples) < 8:
        return False
    quarter = len(samples) // 4
    first = statistics.mean(samples[:quarter])
    last = statistics.mean(samples[-quarter:])
    return last > 4 * first + floor


# ---------------------------------------------------------------------------
# Freshness.

class ProbeTracker:
    """Follows the true number of copies of each probe value that an epoch
    holds, from the counting sample's exact subsequent counts.

    Each reading holds the probe values' counts from one epoch.  Their
    true copy counts are equal (every stream batch carries the same number
    of each), so count_i + loss_i agree until a threshold raise cuts some
    count_i.  Cuts only lower a count, so the largest count_i + loss_i is
    the true total whenever at least one value escaped the raise; the
    losses are then re-anchored to it.
    """

    def __init__(self, anchor_counts, anchor_total):
        self.loss = [anchor_total - c for c in anchor_counts]
        self.total = anchor_total

    def observe(self, counts, points):
        """Returns the epoch's total, or None for a reading whose answers
        came from different epochs."""
        if len(set(points)) != 1:
            return None
        best = max([self.total] + [c + l for c, l in zip(counts, self.loss)])
        self.total = best
        self.loss = [best - c for c in counts]
        return best


def freshness_ms(ingest, probes, anchor_counts, anchor_total, window_ns):
    """Ack -> first probe answer that reflects the batch, per stream batch
    acked inside the window.

    A batch is reflected once an epoch holds at least as many probe copies
    as had been acked when the batch was acked; only answers to probes sent
    after the ack count.
    """
    acks = sorted((r["done"], r["probe_copies"]) for r in ingest
                  if r["ok"] and r["target"] == 0 and r["probe_copies"] > 0)
    pending = deque()
    cumulative = anchor_total
    for done, copies in acks:
        cumulative += copies
        pending.append((done, cumulative))
    tracker = ProbeTracker(anchor_counts, anchor_total)
    out = []
    for probe in sorted(probes, key=lambda p: p["done"]):
        if not probe["ok"]:
            continue
        total = tracker.observe(probe["counts"], probe["points"])
        if total is None:
            continue
        while pending and pending[0][0] < probe["sent"] and pending[0][1] <= total:
            ack, _ = pending.popleft()
            if 0 <= ack <= window_ns:
                out.append((probe["done"] - ack) / 1e6)
    return out


# ---------------------------------------------------------------------------
# Exact-answer oracle.

class Oracle:
    """Exact answers over the multiset of values the harness sent."""

    def __init__(self, counts):
        self.counts = dict(counts)
        self.values = sorted(self.counts)
        self.prefix = [0]
        for v in self.values:
            self.prefix.append(self.prefix[-1] + self.counts[v])
        self.total = self.prefix[-1]

    def frequency(self, value):
        return self.counts.get(value, 0)

    def count_range(self, low, high):
        lo = bisect.bisect_left(self.values, low)
        hi = bisect.bisect_right(self.values, high)
        return self.prefix[hi] - self.prefix[lo]

    def distinct(self):
        return len(self.values)

    def top(self, k, exclude=()):
        ranked = sorted((v for v in self.values if v not in exclude),
                        key=lambda v: (-self.counts[v], v))
        return ranked[:k]

    def quantile(self, q):
        """Smallest value whose cumulative share reaches q."""
        target = max(1, math.ceil(q * self.total))
        i = bisect.bisect_left(self.prefix, target)
        return self.values[min(i, len(self.values)) - 1]

    def rank_error(self, q, x):
        """Distance from q to the share of values below or at x."""
        below = self.prefix[bisect.bisect_left(self.values, x)] / self.total
        at_or_below = self.prefix[bisect.bisect_right(self.values, x)] / self.total
        if below <= q <= at_or_below:
            return 0.0
        return min(abs(q - below), abs(q - at_or_below))


def relative_error(estimate, exact):
    if exact == 0:
        return 0.0 if estimate == 0 else 1.0
    return abs(estimate - exact) / exact


def parse_query_string(target):
    query = target.split("?", 1)[1] if "?" in target else ""
    return dict(part.split("=", 1) for part in query.split("&") if "=" in part)


def evaluate_audit(answers, oracle):
    """Scores the end-of-run audit against the oracle.

    `answers` are (label, target, status, body) tuples.  Returns a dict
    with per-kind median errors, CI coverage, hot-list recall and false
    positives, and the overall answer_error (median over every answer;
    rank error for quantiles).
    """
    errors = {k: [] for k in ("hotlist", "frequency", "count_where",
                              "quantile", "distinct")}
    covered = []
    recall = false_positives = None
    special = set(PROBE_VALUES) | set(MARKER_VALUES)
    exact_top50 = set(oracle.top(50, exclude=special))
    exact_top200 = set(oracle.top(200, exclude=special))
    exact_top20 = set(oracle.top(20))
    for label, target, status, body in answers:
        if status != 200 or label in ("stats", "attr_stats"):
            continue
        doc = json.loads(body)
        params = parse_query_string(target)
        if label == "hotlist20":
            returned = [item["value"] for item in doc["items"]]
            hits = len(exact_top20 & set(returned))
            recall = hits / len(exact_top20)
            false_positives = ((len(returned) - hits) / len(returned)
                               if returned else 1.0)
        elif label == "hotlist50":
            for item in doc["items"]:
                if item["value"] in exact_top50:
                    errors["hotlist"].append(relative_error(
                        item["estimated_count"], oracle.frequency(item["value"])))
        elif label == "frequency":
            value = int(params["value"])
            if value not in exact_top200:
                continue
            exact = oracle.frequency(value)
            errors["frequency"].append(relative_error(doc["estimate"], exact))
            covered.append(doc["ci_low"] <= exact <= doc["ci_high"])
        elif label == "count_where":
            exact = oracle.count_range(int(params["low"]), int(params["high"]))
            errors["count_where"].append(relative_error(doc["estimate"], exact))
            covered.append(doc["ci_low"] <= exact <= doc["ci_high"])
        elif label == "quantile":
            q = float(params["q"])
            errors["quantile"].append(oracle.rank_error(q, doc["estimate"]))
            covered.append(doc["ci_low"] <= oracle.quantile(q) <= doc["ci_high"])
        elif label == "distinct":
            exact = oracle.distinct()
            errors["distinct"].append(relative_error(doc["estimate"], exact))
            covered.append(doc["ci_low"] <= exact <= doc["ci_high"])
    # The hot list's counts repeat the frequency answers of the same values,
    # so only the per-kind figure uses them.
    every = [e for kind, errs in errors.items() if kind != "hotlist"
             for e in errs]
    return {
        "errors": {k: median(v) for k, v in errors.items()},
        "answer_error": median(every),
        "ci_coverage": (sum(covered) / len(covered)) if covered else None,
        "hotlist_recall": recall,
        "hotlist_false_positives": false_positives,
    }


# ---------------------------------------------------------------------------
# /stats scraper.

def flatten_stats(doc, prefix=""):
    """Flattens a /stats document to dotted numeric counters.

    Lists of objects are keyed by their "name" (synopses) or "kind"
    (planner) field, so synopses.counting-sample.cache.refreshes names one
    counter whatever the list order.
    """
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten_stats(value, f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            name = item.get("name", item.get("kind", i)) if isinstance(item, dict) else i
            out.update(flatten_stats(item, f"{prefix}{name}."))
    elif isinstance(doc, bool):
        out[prefix[:-1]] = int(doc)
    elif isinstance(doc, (int, float)):
        out[prefix[:-1]] = doc
    return out


def stats_delta(start, end):
    """end - start for every numeric counter present in both."""
    return {k: end[k] - start[k] for k in end if k in start}


def synopsis_sum(delta, field):
    """Sum of synopses.<name>.<field> over every synopsis."""
    return sum(v for k, v in delta.items()
               if k.startswith("synopses.") and k.endswith("." + field))


def counter_metrics(delta, window_s):
    """Per-layer metrics read from the /stats counters of one window."""
    refreshes = synopsis_sum(delta, "cache.refreshes")
    rebuilds = (synopsis_sum(delta, "refresh.full_rebuilds") +
                synopsis_sum(delta, "refresh.incremental_rebuilds"))
    views = (synopsis_sum(delta, "refresh.view_full_builds") +
             synopsis_sum(delta, "refresh.view_patched_builds"))
    hits = delta.get("http.cache_hits", 0)
    misses = delta.get("http.cache_misses", 0)
    return {
        "server.cache_hit_ratio": ratio(hits, hits + misses),
        "server.syscalls_per_request": ratio(delta.get("http.io.syscalls", 0),
                                             delta.get("http.requests", 0)),
        "server.cache_invalidations_per_s":
            delta.get("http.cache_invalidations", 0) / window_s,
        "concurrency.epochs_per_s": delta.get("epoch", 0) / window_s,
        "concurrency.inline_refresh_share":
            ratio(synopsis_sum(delta, "cache.inline_refreshes"), refreshes),
        "concurrency.incremental_share":
            ratio(synopsis_sum(delta, "refresh.incremental_rebuilds"), rebuilds),
        "view.patched_share":
            ratio(synopsis_sum(delta, "refresh.view_patched_builds"), views),
    }


# ---------------------------------------------------------------------------
# One run's records -> metrics and the correctness gate.

# Sanity thresholds of the audit: far looser than the paper's accuracy, so
# they only trip on a broken answer path, never on sampling noise.
MAX_ANSWER_ERROR = 0.25
MIN_HOTLIST_RECALL = 0.7
MIN_CI_COVERAGE = 0.5


def analyze(run_dir):
    """Reads one load-generator run; returns (end_to_end, per_layer, env, gate,
    counts).

    `gate` maps each correctness check to True (passed) or False; `counts`
    holds the requests attempted and failed inside the window.
    """
    with open(os.path.join(run_dir, "summary.json")) as f:
        summary = json.load(f)
    window_ns = summary["window_ns"]
    window_s = window_ns / 1e9
    queries = load_queries(os.path.join(run_dir, "queries.csv"))
    ingest = load_ingest(os.path.join(run_dir, "ingest.csv"))
    probes = load_probes(os.path.join(run_dir, "probes.csv"))
    oracle = Oracle(load_counts(os.path.join(run_dir, "counts.csv")))
    backlog = [n for _t, n in read_rows(os.path.join(run_dir, "backlog.csv"))]

    latencies, lateness = query_latencies_us(queries, window_ns)
    window_ingest = [r for r in ingest if 0 <= r["due"] < window_ns]
    fresh = freshness_ms(ingest, probes, summary["probe_anchor"],
                         summary["probe_anchor_total"], window_ns)

    answers = []
    with open(os.path.join(run_dir, "audit.tsv")) as f:
        for line in f:
            label, target, status, body = line.rstrip("\n").split("\t", 3)
            answers.append((label, target, int(status), body))
    audit = evaluate_audit(answers, oracle)

    def load_json(name):
        with open(os.path.join(run_dir, name)) as f:
            text = f.read()
        return flatten_stats(json.loads(text)) if text else {}
    stats_start = load_json("stats_start.json")
    stats_end = load_json("stats_end.json")
    delta = stats_delta(stats_start, stats_end)

    end_to_end = {"setup_s": median(summary["setup_s"])}
    end_to_end.update(traffic_metrics(queries, ingest, window_ns,
                                      summary["server_cpu_ns"]))
    end_to_end.update({
        "freshness_p50_ms": percentile(fresh, 50),
        "answer_error": audit["answer_error"],
        "hotlist_recall": audit["hotlist_recall"],
        "server_rss_mb": summary["vmhwm_kb"] / 1024.0,
    })
    per_layer = counter_metrics(delta, window_s)
    per_layer["query_p99_us"] = percentile(latencies, 99)
    per_layer.update({
        f"registry.error.{k}": v for k, v in audit["errors"].items()})
    per_layer["registry.ci_coverage"] = audit["ci_coverage"]
    per_layer["registry.hotlist_false_positives"] = audit["hotlist_false_positives"]
    steal_ms = summary["steal_ticks"] * 1000.0 / summary["clock_ticks_per_s"]
    nproc = os.cpu_count()
    calibration = summary["calibration_ns"]
    per_layer.update({
        "harness.generator_lag_p99_us": percentile(lateness, 99),
        "harness.steal_ms": steal_ms,
        "harness.calibration_ns": median(calibration),
        "harness.query_samples": len(latencies),
        "harness.freshness_samples": len(fresh),
    })
    env = {
        "server_cpus": summary["server_cpus"],
        "generator_cpu": summary["generator_cpu"],
        "server_thread_split": summary["thread_split"],
        "nproc": nproc,
        "server_flags": summary["server_flags"].strip(),
        "steal_ms": steal_ms,
        # Share of all CPUs' time over the window that the host stole.
        "steal_share": steal_ms / (window_ns / 1e6 * nproc),
        "generator_lag_p99_us": per_layer["harness.generator_lag_p99_us"],
        "calibration_ns_before_after": calibration,
        "calibration_drift": abs(calibration[1] - calibration[0]) / calibration[0],
        "query_samples": len(latencies),
        "query_p99_supported": highest_supported_percentile(len(latencies)),
        "freshness_samples": len(fresh),
    }

    failed_queries = sum(1 for lat in latencies if lat == math.inf)
    failed_ingest = sum(1 for r in window_ingest if not r["ok"])
    # Inserts as /stats (stream, then each attribute) counts them after the
    # last batch, against the values the server acked.
    inserts = [json.loads(body).get("inserts")
               for label, _t, status, body in answers
               if label in ("stats", "attr_stats") and status == 200]
    gate = {
        "no_failed_requests": (all(q[3] for q in queries) and
                               all(r["ok"] for r in ingest)),
        "no_method_none": summary["method_none"] == 0,
        "audit_within_thresholds": (
            audit["answer_error"] is not None and
            audit["answer_error"] <= MAX_ANSWER_ERROR and
            (audit["hotlist_recall"] or 0) >= MIN_HOTLIST_RECALL and
            (audit["ci_coverage"] or 0) >= MIN_CI_COVERAGE),
        "inserts_match_acked": inserts == summary["acked_values"],
        "backlog_steady": not backlog_grew(backlog),
        "last_batch_visible": summary["last_batch_visible"],
        "metrics_present": all(v is not None and math.isfinite(v) and v > 0
                               for v in end_to_end.values()),
    }
    counts = {
        "attempted": len(latencies) + len(window_ingest),
        "failed": failed_queries + failed_ingest,
    }
    return end_to_end, per_layer, env, gate, counts


# ---------------------------------------------------------------------------
# Traced replay -> per-layer span metrics.

# Spans timed in microseconds (epoch refresh); every other span in ns.
MICROSECOND_SPANS = ("settle", "build")


def replay_metrics(report):
    """Per-layer metrics from perfbench_replay's aggregates.

    A span named module.what[.qualifier] gives the metric
    module.what_ns[.qualifier]: its self time per unit of work (per value
    for ingest spans, per call otherwise), in microseconds for settles and
    view builds.  The replay's own tracing overhead is reported as
    harness.tracing_overhead.
    """
    out = {}
    for name, aggregate in report["aggregates"].items():
        module, what, *qualifier = name.split(".", 2)
        micro = what in MICROSECOND_SPANS
        metric = f"{module}.{what}_{'us' if micro else 'ns'}"
        if qualifier:
            metric += "." + qualifier[0]
        per_unit = (aggregate["self_ns"] / aggregate["work"]
                    if aggregate["work"] else 0.0)
        out[metric] = per_unit / 1000.0 if micro else per_unit
    out["harness.tracing_overhead"] = report["tracing_overhead"]
    return out
