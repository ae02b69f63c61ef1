"""Tests of the benchmark's own math, of the load generator's open-loop
timing and of its placement of the server's threads.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The open-loop and thread-split tests build perfbench_loadgen
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build, as run.py
does, and point it at a fake server (a thread in this process, or a child
process).
"""

import json
import math
import os
import socket
import subprocess
import tempfile
import threading
import time
import unittest

import bench_lib
import run

# A trimmed /stats body as aqua_serve renders it.
STATS_START = {
    "inserts": 1000, "epoch": 8, "refresh_mode": "inline",
    "synopses": [
        {"name": "concise-sample", "valid": True, "epoch": 4,
         "cache": {"refreshes": 4, "inline_refreshes": 1},
         "refresh": {"full_rebuilds": 3, "incremental_rebuilds": 1,
                     "view_full_builds": 4, "view_patched_builds": 0}},
        {"name": "counting-sample", "valid": True, "epoch": 4,
         "cache": {"refreshes": 4, "inline_refreshes": 0},
         "refresh": {"full_rebuilds": 4, "incremental_rebuilds": 0,
                     "view_full_builds": 2, "view_patched_builds": 2}},
    ],
    "planner": [{"kind": "hotlist", "synopsis": "counting-sample",
                 "latency_ewma_ns": 900.5}],
    "http": {"requests": 100, "cache_hits": 60, "cache_misses": 40,
             "cache_invalidations": 5, "io_backend": "epoll",
             "io": {"syscalls": 250}},
}
STATS_END = json.loads(json.dumps(STATS_START))
STATS_END.update({"inserts": 3000, "epoch": 18})
STATS_END["synopses"][0]["cache"] = {"refreshes": 9, "inline_refreshes": 1}
STATS_END["synopses"][0]["refresh"] = {
    "full_rebuilds": 5, "incremental_rebuilds": 4,
    "view_full_builds": 5, "view_patched_builds": 4}
STATS_END["synopses"][1]["cache"] = {"refreshes": 9, "inline_refreshes": 0}
STATS_END["synopses"][1]["refresh"] = {
    "full_rebuilds": 9, "incremental_rebuilds": 0,
    "view_full_builds": 3, "view_patched_builds": 6}
STATS_END["http"].update({"requests": 1100, "cache_hits": 960,
                          "cache_misses": 140, "cache_invalidations": 25})
STATS_END["http"]["io"] = {"syscalls": 2750}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(bench_lib.percentile(values, 50), 50)
        self.assertEqual(bench_lib.percentile(values, 99), 99)
        self.assertEqual(bench_lib.percentile(values, 100), 100)
        self.assertEqual(bench_lib.percentile([7], 99), 7)
        self.assertIsNone(bench_lib.percentile([], 50))

    def test_failures_sort_last(self):
        values = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(bench_lib.percentile(values, 98), 1.0)
        self.assertEqual(bench_lib.percentile(values, 99), math.inf)

    def test_sample_counts(self):
        self.assertEqual(bench_lib.samples_beyond(1000, 99), 10)
        self.assertEqual(bench_lib.samples_beyond(999, 99), 9)
        self.assertEqual(bench_lib.samples_beyond(100, 99), 1)
        self.assertEqual(bench_lib.highest_supported_percentile(10000), 99.9)
        self.assertEqual(bench_lib.highest_supported_percentile(1000), 99.0)
        self.assertEqual(bench_lib.highest_supported_percentile(100), 90.0)
        self.assertIsNone(bench_lib.highest_supported_percentile(5))

    def test_latency_from_due_time(self):
        # (due, sent, done, ok, probe): the second request was sent 300 us
        # late and answered 1 ms after its due time; the third failed; the
        # fourth was due after the window.
        queries = [(0, 0, 40_000, 1, 0), (100_000, 400_000, 1_100_000, 1, 0),
                   (200_000, 200_000, 250_000, 0, 0),
                   (5_000_000, 5_000_000, 5_010_000, 1, 0)]
        latencies, lateness = bench_lib.query_latencies_us(queries, 1_000_000)
        self.assertEqual(latencies, [40.0, 1000.0, math.inf])
        self.assertEqual(lateness, [0.0, 300.0, 0.0])

    def test_backlog(self):
        self.assertFalse(bench_lib.backlog_grew([1, 2, 40, 1, 0, 2, 1, 3]))
        self.assertTrue(bench_lib.backlog_grew(
            [1, 2, 3, 50, 100, 200, 400, 800]))


class TrafficMetricsTest(unittest.TestCase):
    def test_whole_window(self):
        s = 1_000_000_000
        # Two queries a second for 20 s, 20 us each; the fourth one failed.
        queries = [(i * s // 2, i * s // 2, i * s // 2 + 20_000, 1, 0)
                   for i in range(40)]
        queries[3] = (3 * s // 2, 3 * s // 2, 3 * s // 2 + 5_000, 0, 0)
        # A 1000-value batch acked each second, 300 us after it was sent,
        # except in the eighth second, when the server stalled.
        ingest = [{"due": i * s, "sent": i * s, "done": i * s + 300_000,
                   "values": 1000, "ok": 1} for i in range(20) if i != 7]
        m = bench_lib.traffic_metrics(queries, ingest, 20 * s,
                                      server_cpu_ns=39_000_000)
        self.assertEqual(m["query_p50_us"], 20.0)
        self.assertAlmostEqual(m["query_cpu_us"], 1000.0)  # 39 ms / 39
        # The stalled second counts in full: 19000 values over 20 s.
        self.assertAlmostEqual(m["ingest_values_per_s"], 950.0)
        self.assertAlmostEqual(m["ingest_cpu_ns"], 39_000_000 / 19_000)
        self.assertEqual(m["ingest_ack_p50_us"], 300.0)


class FreshnessTest(unittest.TestCase):
    def test_tracker_survives_a_cut(self):
        tracker = bench_lib.ProbeTracker([90, 95, 100], 100)
        self.assertEqual(tracker.observe([92, 97, 102], [7, 7, 7]), 102)
        # A threshold raise cuts the second count by 50 while two more
        # copies arrive: the other two still show the true total.
        self.assertEqual(tracker.observe([94, 49, 104], [9, 9, 9]), 104)
        self.assertEqual(tracker.observe([95, 50, 105], [10, 10, 10]), 105)
        # Answers from different epochs are skipped.
        self.assertIsNone(tracker.observe([96, 51, 106], [11, 12, 12]))

    def test_freshness_from_ack(self):
        ms = 1_000_000
        ingest = [  # two stream batches with one copy each, one attr batch
            {"done": 10 * ms, "ok": 1, "target": 0, "probe_copies": 1},
            {"done": 20 * ms, "ok": 1, "target": 1, "probe_copies": 0},
            {"done": 30 * ms, "ok": 1, "target": 0, "probe_copies": 1},
        ]
        probe = lambda sent, done, c: {  # noqa: E731
            "sent": sent * ms, "done": done * ms, "ok": True,
            "counts": [c, c, c], "points": [c, c, c]}
        probes = [probe(5, 6, 100), probe(12, 13, 100), probe(40, 41, 101),
                  probe(50, 51, 102)]
        fresh = bench_lib.freshness_ms(ingest, probes, [100, 100, 100], 100,
                                       100 * ms)
        self.assertEqual(fresh, [31.0, 21.0])


class OracleTest(unittest.TestCase):
    def setUp(self):
        # Stream 1 1 1 1 1 2 2 2 3 7: hand-checked answers below.
        self.oracle = bench_lib.Oracle({1: 5, 2: 3, 3: 1, 7: 1})

    def test_exact_answers(self):
        o = self.oracle
        self.assertEqual(o.total, 10)
        self.assertEqual(o.frequency(2), 3)
        self.assertEqual(o.frequency(4), 0)
        self.assertEqual(o.count_range(2, 7), 5)
        self.assertEqual(o.count_range(4, 6), 0)
        self.assertEqual(o.distinct(), 4)
        self.assertEqual(o.top(2), [1, 2])
        self.assertEqual(o.top(2, exclude={1}), [2, 3])
        self.assertEqual(o.quantile(0.5), 1)
        self.assertEqual(o.quantile(0.6), 2)
        self.assertEqual(o.quantile(1.0), 7)
        self.assertEqual(o.rank_error(0.6, 2), 0.0)
        self.assertAlmostEqual(o.rank_error(0.95, 2), 0.15)

    def test_audit(self):
        answers = [
            ("hotlist20", "/hotlist?k=20", 200, json.dumps({"items": [
                {"value": 1, "estimated_count": 6}, {"value": 9,
                                                     "estimated_count": 2}]})),
            ("frequency", "/frequency?value=2", 200, json.dumps(
                {"estimate": 3.3, "ci_low": 3, "ci_high": 4})),
            ("count_where", "/count_where?low=2&high=7", 200, json.dumps(
                {"estimate": 4, "ci_low": 3, "ci_high": 4.5})),
            ("quantile", "/quantile?q=0.5", 200, json.dumps(
                {"estimate": 2, "ci_low": 1, "ci_high": 3})),
            ("distinct", "/distinct", 200, json.dumps(
                {"estimate": 5, "ci_low": 4.5, "ci_high": 6})),
        ]
        audit = bench_lib.evaluate_audit(answers, self.oracle)
        self.assertAlmostEqual(audit["errors"]["frequency"], 0.1)
        self.assertAlmostEqual(audit["errors"]["count_where"], 0.2)
        self.assertEqual(audit["errors"]["quantile"], 0.0)
        self.assertAlmostEqual(audit["errors"]["distinct"], 0.25)
        self.assertAlmostEqual(audit["answer_error"], 0.15)
        # Frequency and quantile intervals hold the exact answer; the range
        # and distinct ones miss it.
        self.assertEqual(audit["ci_coverage"], 0.5)
        # Four values make up the exact "top-20"; one of them came back.
        self.assertEqual(audit["hotlist_recall"], 0.25)
        self.assertEqual(audit["hotlist_false_positives"], 0.5)


class StatsScraperTest(unittest.TestCase):
    def test_flatten(self):
        flat = bench_lib.flatten_stats(STATS_START)
        self.assertEqual(flat["http.cache_hits"], 60)
        self.assertEqual(flat["http.io.syscalls"], 250)
        self.assertEqual(flat["synopses.counting-sample.cache.refreshes"], 4)
        self.assertEqual(flat["synopses.concise-sample.valid"], 1)
        self.assertEqual(flat["planner.hotlist.latency_ewma_ns"], 900.5)
        self.assertNotIn("refresh_mode", flat)

    def test_counter_metrics(self):
        delta = bench_lib.stats_delta(bench_lib.flatten_stats(STATS_START),
                                      bench_lib.flatten_stats(STATS_END))
        self.assertEqual(delta["inserts"], 2000)
        m = bench_lib.counter_metrics(delta, window_s=2.0)
        self.assertAlmostEqual(m["server.cache_hit_ratio"], 900 / 1000)
        self.assertAlmostEqual(m["server.syscalls_per_request"], 2.5)
        self.assertAlmostEqual(m["server.cache_invalidations_per_s"], 10.0)
        self.assertAlmostEqual(m["concurrency.epochs_per_s"], 5.0)
        self.assertEqual(m["concurrency.inline_refresh_share"], 0.0)
        self.assertAlmostEqual(m["concurrency.incremental_share"], 3 / 10)
        self.assertAlmostEqual(m["view.patched_share"], 8 / 10)


class ReplayMetricsTest(unittest.TestCase):
    def test_names_and_units(self):
        report = {"tracing_overhead": 0.05, "aggregates": {
            "server.http_parse": {"self_ns": 3000, "spans": 10, "work": 10},
            "registry.answer.hotlist": {"self_ns": 900, "spans": 3, "work": 3},
            "concurrency.insert.fm-sketch": {"self_ns": 4000, "spans": 2,
                                             "work": 200},
            "concurrency.settle.concise-sample": {"self_ns": 9000, "spans": 3,
                                                  "work": 3},
            "view.build.counting-sample": {"self_ns": 4000, "spans": 2,
                                           "work": 2},
        }}
        m = bench_lib.replay_metrics(report)
        self.assertEqual(m["server.http_parse_ns"], 300)
        self.assertEqual(m["registry.answer_ns.hotlist"], 300)
        self.assertEqual(m["concurrency.insert_ns.fm-sketch"], 20)
        self.assertEqual(m["concurrency.settle_us.concise-sample"], 3)
        self.assertEqual(m["view.build_us.counting-sample"], 2)
        self.assertEqual(m["harness.tracing_overhead"], 0.05)


class StallingServer(threading.Thread):
    """Answers pipelined GETs on any number of keep-alive connections.  When
    request number `stall_at` comes in, it answers nothing on any connection
    for `stall_s` seconds, as a server stuck in a refresh would."""

    def __init__(self, stall_at, stall_s):
        super().__init__(daemon=True)
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self.stall_at, self.stall_s = stall_at, stall_s
        self.lock = threading.Lock()
        self.received = 0

    def run(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self.serve, args=(conn,),
                             daemon=True).start()

    def serve(self, conn):
        body = (b'{"estimate":1,"ci_low":1,"ci_high":2,"sample_points":1,'
                b'"method":"fake"}')
        reply = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
                 + body)
        buffer = b""
        with conn:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                buffer += data
                n = buffer.count(b"\r\n\r\n")
                buffer = buffer[buffer.rfind(b"\r\n\r\n") + 4:] if n else buffer
                # The stall sleeps holding the lock, so every connection
                # waits behind it.
                with self.lock:
                    before = self.received
                    self.received += n
                    if before < self.stall_at <= self.received:
                        time.sleep(self.stall_s)
                conn.sendall(reply * n)


class OpenLoopTimingTest(unittest.TestCase):
    def test_stall_counts_against_every_request_behind_it(self):
        build_dir = os.path.abspath(os.path.join(
            run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
        _, loadgen, _ = run.build(build_dir)
        server = StallingServer(stall_at=5000, stall_s=0.2)
        server.start()
        # dashboard's own schedule (QuerySchedule, as a run drives it): 1 s
        # of warm-up and a 1 s window at ~10k requests/s over three
        # connections, panel queries and pipelined probe bursts.
        with tempfile.TemporaryDirectory(dir=build_dir) as out:
            subprocess.run([loadgen, "--workload", "dashboard", "--seed", "5",
                            "--seconds", "1", "--out", out,
                            "--open-loop-port", str(server.port)],
                           check=True, timeout=60)
            queries = bench_lib.load_queries(os.path.join(out, "queries.csv"))
        server.listener.close()
        latencies, lateness = bench_lib.query_latencies_us(queries, 10**12)
        self.assertGreater(len(latencies), 15000)
        self.assertTrue(any(q[4] for q in queries))
        self.assertTrue(all(math.isfinite(x) for x in latencies))
        slow = [(q[0], (q[2] - q[0]) / 1e3) for q in queries
                if (q[2] - q[0]) > 50_000_000]
        # An open loop keeps sending through the stall: about 200 ms x
        # 10k/s requests queue behind it, and each one's latency, counted
        # from its due time, runs to the end of the stall.
        self.assertGreater(len(slow), 1000)
        self.assertGreater(max(lat for _, lat in slow), 180_000)
        ends = [due / 1e3 + lat for due, lat in slow]
        self.assertLess(max(ends) - min(ends), 30_000)
        # The generator itself stayed on schedule, and says so.
        lag_p99 = bench_lib.percentile(lateness, 99)
        self.assertIsNotNone(lag_p99)
        self.assertLess(lag_p99, 20_000)


class ThreadSplitTest(unittest.TestCase):
    # A fake server whose threads print their ids, then block: the reactor
    # in epoll_wait, a timer-driven thread (like the refresh pump) in a
    # futex wait with a timeout, a request worker in one without, and the
    # main thread in read().
    FAKE_SERVER = (
        "import select, sys, threading\n"
        "ep = select.epoll()\n"
        "def role(name, wait):\n"
        "    def body():\n"
        "        print(name, threading.get_native_id(), flush=True)\n"
        "        wait()\n"
        "    threading.Thread(target=body, daemon=True).start()\n"
        "role('reactor', lambda: ep.poll(60))\n"
        "role('timed', lambda: threading.Event().wait(60))\n"
        "role('worker', lambda: threading.Event().wait())\n"
        "print('main', threading.get_native_id(), flush=True)\n"
        "sys.stdin.read()\n")

    def test_roles_and_placement(self):
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            self.skipTest("needs two CPUs")
        build_dir = os.path.abspath(os.path.join(
            run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
        _, loadgen, _ = run.build(build_dir)
        server = subprocess.Popen(["python3", "-c", self.FAKE_SERVER],
                                  stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)
        try:
            tids = dict(server.stdout.readline().split() for _ in range(4))
            out = subprocess.run(
                [loadgen, "--split-threads", str(server.pid),
                 "--server-cpus", f"{cpus[0]},{cpus[1]}"],
                check=True, timeout=30, stdout=subprocess.PIPE, text=True)
            split = json.loads(out.stdout)
            placed = {}
            for name, tid in tids.items():
                with open(f"/proc/{server.pid}/task/{tid}/status") as f:
                    placed[name] = [line.split()[1] for line in f
                                    if line.startswith("Cpus_allowed_list")][0]
        finally:
            server.stdin.close()
            server.wait(timeout=10)
        self.assertEqual(split, {"reactors": 1, "timed": 1, "others": 2,
                                 "reactor_cpus": [cpus[0]],
                                 "other_cpus": [cpus[1]]})
        self.assertEqual(placed, {"reactor": str(cpus[0]),
                                  "timed": str(cpus[0]),
                                  "worker": str(cpus[1]),
                                  "main": str(cpus[1])})


if __name__ == "__main__":
    unittest.main()
