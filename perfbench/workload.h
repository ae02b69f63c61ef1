// Seeded inputs of the three benchmark workloads.
//
// The load generator (loadgen.cc) and the traced replay (replay.cc) both
// build their inputs here, so a replay sees exactly the values and requests
// an untraced run sent.  Nothing in this file depends on the library: the
// Zipf sampler, the RNG and the query texts are the benchmark's own, so a
// change to the program never changes what the benchmark sends.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Value = std::int64_t;

/// Value domain of the Zipf stream: values 1..kDomain, value r having rank r.
inline constexpr std::int64_t kDomain = 100000;
inline constexpr double kZipfAlpha = 1.0;
/// Values of the preload (4M) and of every ingest POST during set-up.
inline constexpr std::int64_t kPreloadValues = 4000000;
inline constexpr std::int64_t kPreloadBatch = 4096;
/// Per catalog attribute on `adhoc`.
inline constexpr std::int64_t kAttrPreloadValues = 400000;

/// Freshness probes: five values outside the Zipf domain.  The first
/// preload batch holds kProbeSeedCount copies of each, so all enter the
/// counting sample at threshold 1 and it counts every later occurrence
/// exactly (paper §4).  Each stream ingest batch then carries a fixed number
/// of copies of each, and a probe reads all five in one pipelined burst: a
/// threshold raise that cuts some of the counts is told apart from new
/// ingest by the others.  (With three, a bulk load's raises cut all of them
/// at once in about one run in ten.)  Their totals stay below the top-20.
inline constexpr Value kProbeValues[] = {1000001, 1000002, 1000003, 1000004,
                                         1000005};
inline constexpr std::size_t kProbes = std::size(kProbeValues);
inline constexpr std::int64_t kProbeSeedCount = 6000;
/// Set-up marker: a value never sent before, posted kMarkerCount times after
/// every preload batch was acked.  An answer with a nonzero count for it
/// comes from an epoch that holds the whole preload.
inline constexpr Value kMarkerValue = 2000003;
/// The same for the end of a run: posted once ingest stopped, it shows when
/// the last batch is in an epoch.
inline constexpr Value kEndMarkerValue = 2000004;
inline constexpr std::int64_t kMarkerCount = 12000;

/// splitmix64: tiny, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::int64_t Between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    Next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Exponential inter-arrival gap for a Poisson process of `rate` per s.
  double ExpGap(double rate) { return -std::log(1.0 - Uniform()) / rate; }

 private:
  std::uint64_t state_;
};

/// Zipf(alpha) over 1..n by Walker's alias method: O(1) per draw, so the
/// generator keeps up with a multi-million-value bulk load on one CPU.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double alpha) : prob_(n), alias_(n) {
    std::vector<double> p(n);
    double total = 0;
    for (std::int64_t r = 0; r < n; ++r) {
      p[r] = 1.0 / std::pow(static_cast<double>(r + 1), alpha);
      total += p[r];
    }
    std::vector<std::int64_t> small, large;
    for (std::int64_t r = 0; r < n; ++r) {
      p[r] = p[r] * static_cast<double>(n) / total;
      (p[r] < 1.0 ? small : large).push_back(r);
    }
    while (!small.empty() && !large.empty()) {
      const std::int64_t s = small.back(), l = large.back();
      small.pop_back();
      prob_[s] = p[s];
      alias_[s] = l;
      p[l] -= 1.0 - p[s];
      if (p[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::int64_t r : small) prob_[r] = 1.0, alias_[r] = r;
    for (std::int64_t r : large) prob_[r] = 1.0, alias_[r] = r;
  }
  Value Draw(Rng& rng) const {
    const std::uint64_t bits = rng.Next();
    const std::int64_t column = static_cast<std::int64_t>(
        (bits >> 32) % static_cast<std::uint64_t>(prob_.size()));
    const double coin = static_cast<double>(bits & 0xffffffffULL) * 0x1.0p-32;
    return 1 + (coin < prob_[column] ? column : alias_[column]);
  }

 private:
  std::vector<double> prob_;
  std::vector<std::int64_t> alias_;
};

enum class Kind { kDashboard, kAdhoc, kFirehose };

inline bool ParseKind(std::string_view name, Kind* kind) {
  if (name == "dashboard") return *kind = Kind::kDashboard, true;
  if (name == "adhoc") return *kind = Kind::kAdhoc, true;
  if (name == "firehose") return *kind = Kind::kFirehose, true;
  return false;
}

/// One query slot of the open-loop schedule: due time from the start of
/// traffic, and either one request (index into WorkloadPlan::queries) or a
/// freshness probe (the probe values, pipelined back to back).
struct Slot {
  double due_s = 0;
  bool probe = false;
  std::uint32_t query = 0;
};

/// One ingest POST.  target 0 is the stream (`/ingest`), i >= 1 the i-th
/// catalog attribute (`/attr/a<i>/ingest`).  Stream batches end with
/// probe_copies copies of each probe value.
struct IngestBatch {
  double due_s = 0;
  int target = 0;
  std::vector<Value> values;
  int probe_copies = 0;
};

struct WorkloadPlan {
  Kind kind = Kind::kDashboard;
  /// aqua_serve flags on top of `--port 0`.
  std::vector<std::string> server_flags;
  /// Catalog attribute names (adhoc only), served under /attr/<name>/.
  std::vector<std::string> attrs;
  /// Stream preload: the probe seed batch, then the Zipf values.
  std::vector<std::vector<Value>> preload;
  /// Per attribute preload batches.
  std::vector<std::vector<std::vector<Value>>> attr_preload;
  /// Request targets the slots index (a fixed panel, or unique queries).
  std::vector<std::string> queries;
  /// Open-loop query schedule over warm-up + window.
  std::vector<Slot> slots;
  /// Open-loop ingest trickle over warm-up + window (dashboard, adhoc).
  std::vector<IngestBatch> trickle;
  /// Closed-loop bulk load (firehose): batch count, batch size and
  /// connections; batches come from FirehoseBatch().
  std::int64_t firehose_batches = 0;
  int firehose_connections = 0;
  int firehose_probe_copies = 0;
  /// Query and ingest connections; probes go over the query connections.
  int query_connections = 3;
  double warmup_s = 1.0;
  double window_s = 10.0;
  std::uint64_t seed = 0;
};

inline constexpr std::int64_t kFirehoseBatch = 4096;
/// Firehose size: 800 batches of 4096 values per second of window (3.3M
/// values/s), so the bulk load lasts about as long as the others' windows
/// at the ~3.5M values/s aqua_serve sustains on a 4-CPU host.
inline constexpr std::int64_t kFirehoseBatchesPerSecond = 800;

inline const ZipfSampler& Zipf() {
  static const ZipfSampler sampler(kDomain, kZipfAlpha);
  return sampler;
}

/// Percent-encodes a /query statement (spaces as %20; the server does not
/// read '+' as a space).
inline std::string EncodeSql(std::string_view sql) {
  std::string out;
  for (char c : sql) {
    const bool plain = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                       (c >= '0' && c <= '9') || c == '(' || c == ')' ||
                       c == '*' || c == '.' || c == '-' || c == '_';
    if (plain) {
      out.push_back(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    }
  }
  return out;
}

inline std::string QueryTarget(std::string_view sql) {
  return "/query?q=" + EncodeSql(sql);
}

/// The fixed dashboard panel: every query kind on the dedicated routes and
/// on /query, all against the stream.
inline std::vector<std::string> DashboardPanel() {
  return {
      "/hotlist?k=10&beta=3",
      "/hotlist?k=20&beta=0",
      "/frequency?value=1",
      "/frequency?value=2",
      "/frequency?value=5",
      "/frequency?value=10",
      "/count_where?low=1&high=100",
      "/count_where?low=101&high=5000",
      "/count_where?low=5001&high=100000",
      "/quantile?q=0.5",
      "/quantile?q=0.9",
      "/quantile?q=0.99",
      "/distinct",
      QueryTarget("SELECT APPROX(TOP(10)) FROM stream"),
      QueryTarget("SELECT APPROX(FREQUENCY(3)) FROM stream"),
      QueryTarget(
          "SELECT APPROX(COUNT(*)) FROM stream WHERE v BETWEEN 1 AND 1000"),
      QueryTarget("SELECT APPROX(MEDIAN) FROM stream ERROR 5%"),
      QueryTarget("SELECT APPROX(COUNT(DISTINCT v)) FROM stream"),
  };
}

/// One random ad-hoc query: random kind, target, values, ranges, k and
/// bounds, so almost no two share a response-cache key.
inline std::string AdhocQuery(Rng& rng, const std::vector<std::string>& attrs) {
  const int target = static_cast<int>(rng.Between(0, 3));
  const std::string name = target == 0 ? "stream" : attrs[target - 1];
  const std::string route = target == 0 ? "/" : "/attr/" + name + "/";
  const std::int64_t low = rng.Between(1, kDomain);
  const std::int64_t high = std::min<std::int64_t>(
      kDomain, low + rng.Between(0, kDomain / 4));
  char buf[256];
  const double confidence = 0.8 + 0.19 * rng.Uniform();
  switch (rng.Between(0, 9)) {
    case 0:
      std::snprintf(buf, sizeof buf, "%sfrequency?value=%lld", route.c_str(),
                    static_cast<long long>(Zipf().Draw(rng) +
                                           rng.Between(0, 3) * kDomain));
      return buf;
    case 1:
      std::snprintf(buf, sizeof buf,
                    "%scount_where?low=%lld&high=%lld&confidence=%.4f",
                    route.c_str(), static_cast<long long>(low),
                    static_cast<long long>(high), confidence);
      return buf;
    case 2:
      std::snprintf(buf, sizeof buf, "%squantile?q=%.5f&confidence=%.4f",
                    route.c_str(), rng.Uniform(), confidence);
      return buf;
    case 3:
      std::snprintf(buf, sizeof buf, "%shotlist?k=%lld&beta=%.3f",
                    route.c_str(), static_cast<long long>(rng.Between(1, 40)),
                    3.0 * rng.Uniform());
      return buf;
    case 4:
      // The route ignores the parameter; it only makes the cache key new.
      std::snprintf(buf, sizeof buf, "%sdistinct?confidence=%.4f",
                    route.c_str(), confidence);
      return buf;
    default:
      break;
  }
  // Half the traffic is /query with random bounds.
  std::string sql = "SELECT APPROX(";
  switch (rng.Between(0, 4)) {
    case 0:
      std::snprintf(buf, sizeof buf, "TOP(%lld)",
                    static_cast<long long>(rng.Between(1, 40)));
      break;
    case 1:
      std::snprintf(buf, sizeof buf, "FREQUENCY(%lld)",
                    static_cast<long long>(Zipf().Draw(rng)));
      break;
    case 2:
      std::snprintf(buf, sizeof buf, "QUANTILE(%.5f)", rng.Uniform());
      break;
    case 3:
      std::snprintf(buf, sizeof buf, "COUNT(DISTINCT v)");
      break;
    default:
      std::snprintf(buf, sizeof buf, "COUNT(*)");
      break;
  }
  sql += buf;
  sql += ") FROM " + name;
  if (sql.find("COUNT(*)") != std::string::npos) {
    std::snprintf(buf, sizeof buf, " WHERE v BETWEEN %lld AND %lld",
                  static_cast<long long>(low), static_cast<long long>(high));
    sql += buf;
  }
  std::snprintf(buf, sizeof buf, " ERROR %.2f%%", 0.5 + 20.0 * rng.Uniform());
  sql += buf;
  if (rng.Between(0, 1) == 0) {
    std::snprintf(buf, sizeof buf, " CONFIDENCE %.1f%%", confidence * 100.0);
    sql += buf;
  }
  if (rng.Between(0, 2) == 0) {
    std::snprintf(buf, sizeof buf, " WITHIN %lldus",
                  static_cast<long long>(rng.Between(1, 200)));
    sql += buf;
  }
  return QueryTarget(sql);
}

/// A small panel for the firehose probe connection: one query of each kind,
/// so every answer path still runs while ingest owns the server.
inline std::vector<std::string> FirehosePanel() {
  return {
      "/hotlist?k=10&beta=3",
      "/frequency?value=1",
      "/count_where?low=1&high=1000",
      "/quantile?q=0.5",
      "/distinct",
      QueryTarget("SELECT APPROX(COUNT(*)) FROM stream WHERE v BETWEEN 1 "
                  "AND 100 ERROR 5%"),
  };
}

inline std::vector<Value> ZipfBatch(Rng& rng, std::int64_t n) {
  std::vector<Value> values(n);
  for (Value& v : values) v = Zipf().Draw(rng);
  return values;
}

/// Appends `copies` copies of each probe value to a stream batch.
inline void AddProbeCopies(std::vector<Value>* values, int copies) {
  for (int c = 0; c < copies; ++c) {
    for (Value p : kProbeValues) values->push_back(p);
  }
}

/// Distinct firehose batches; the bulk load cycles through them, so the
/// load generator formats them all before set-up and never generates while it
/// sends (a generator busy formatting a batch would send probes late).
inline constexpr std::int64_t kFirehosePool = 1024;

/// Firehose batch i: batch i mod kFirehosePool of a pool drawn from the seed.
inline std::vector<Value> FirehoseBatch(const WorkloadPlan& plan,
                                        std::int64_t i) {
  Rng rng(plan.seed * 0x100000001b3ULL + 0x51ed27 +
          static_cast<std::uint64_t>(i % kFirehosePool));
  std::vector<Value> values = ZipfBatch(rng, kFirehoseBatch);
  AddProbeCopies(&values, plan.firehose_probe_copies);
  return values;
}

/// Builds the whole plan of one workload from its seed.
inline WorkloadPlan MakePlan(Kind kind, std::uint64_t seed, double window_s) {
  WorkloadPlan plan;
  plan.kind = kind;
  plan.seed = seed;
  plan.window_s = window_s;
  Rng rng(seed ^ 0xa0a0b1b1c2c2d3d3ULL);

  // Preload: the probe seed batch (interleaved copies), then 4M Zipf values.
  std::vector<Value> seed_batch;
  AddProbeCopies(&seed_batch, static_cast<int>(kProbeSeedCount));
  plan.preload.push_back(std::move(seed_batch));
  for (std::int64_t done = 0; done < kPreloadValues; done += kPreloadBatch) {
    plan.preload.push_back(ZipfBatch(
        rng, std::min<std::int64_t>(kPreloadBatch, kPreloadValues - done)));
  }

  const double traffic_s = plan.warmup_s + window_s;
  double query_rate = 0, probe_rate = 0, ingest_rate = 0;
  std::int64_t ingest_values = 200;
  std::vector<int> ingest_targets = {0};
  switch (kind) {
    case Kind::kDashboard:
      // Default flags: inline refresh, one reactor.
      plan.queries = DashboardPanel();
      query_rate = 9000;
      probe_rate = 200;
      ingest_rate = 50;
      break;
    case Kind::kAdhoc:
      plan.attrs = {"a1", "a2", "a3"};
      for (const std::string& a : plan.attrs) {
        plan.server_flags.push_back("--attr");
        plan.server_flags.push_back(a);
      }
      query_rate = 3500;
      probe_rate = 100;
      ingest_rate = 80;
      // Stream batches carry the probes, so the stream gets every other one.
      ingest_targets = {0, 1, 0, 2, 0, 3};
      for (std::size_t a = 0; a < plan.attrs.size(); ++a) {
        Rng attr_rng(seed * 31 + 7 + a);
        std::vector<std::vector<Value>> batches;
        for (std::int64_t done = 0; done < kAttrPreloadValues;
             done += kPreloadBatch) {
          batches.push_back(ZipfBatch(
              attr_rng,
              std::min<std::int64_t>(kPreloadBatch,
                                     kAttrPreloadValues - done)));
        }
        plan.attr_preload.push_back(std::move(batches));
      }
      break;
    case Kind::kFirehose:
      plan.server_flags = {"--refresh-mode", "pump"};
      plan.queries = FirehosePanel();
      query_rate = 100;
      probe_rate = 200;
      plan.query_connections = 1;
      plan.firehose_connections = 2;
      plan.firehose_probe_copies = 4;
      plan.firehose_batches = static_cast<std::int64_t>(
          std::llround(kFirehoseBatchesPerSecond * window_s));
      break;
  }

  // Open-loop query schedule: a Poisson stream of panel / ad-hoc queries
  // merged with a Poisson stream of probe bursts.  The firehose's bulk load
  // may outlast the nominal window, so its schedule runs three times as long.
  const double slots_s =
      kind == Kind::kFirehose ? plan.warmup_s + 3 * window_s : traffic_s;
  Rng arrivals(seed ^ 0x5151515151515151ULL);
  double tq = arrivals.ExpGap(query_rate), tp = arrivals.ExpGap(probe_rate);
  std::uint32_t panel_next = 0;
  Rng adhoc_rng(seed ^ 0x7777777777777777ULL);
  while (std::min(tq, tp) < slots_s) {
    Slot slot;
    if (tp < tq) {
      slot.due_s = tp;
      slot.probe = true;
      tp += arrivals.ExpGap(probe_rate);
    } else {
      slot.due_s = tq;
      if (kind == Kind::kAdhoc) {
        plan.queries.push_back(AdhocQuery(adhoc_rng, plan.attrs));
        slot.query = static_cast<std::uint32_t>(plan.queries.size() - 1);
      } else {
        slot.query = panel_next;
        panel_next = (panel_next + 1) % plan.queries.size();
      }
      tq += arrivals.ExpGap(query_rate);
    }
    plan.slots.push_back(slot);
  }

  // Open-loop ingest trickle at uniformly random times, exactly
  // ingest_rate batches per second in the warm-up and in the window, so the
  // values a window offers do not vary with the seed.
  if (ingest_rate > 0) {
    Rng ingest_rng(seed ^ 0x1234567887654321ULL);
    std::vector<double> times;
    for (const auto& [from, seconds] :
         {std::pair{0.0, plan.warmup_s}, std::pair{plan.warmup_s, window_s}}) {
      const auto n = std::llround(ingest_rate * seconds);
      for (long long i = 0; i < n; ++i) {
        times.push_back(from + seconds * ingest_rng.Uniform());
      }
    }
    std::sort(times.begin(), times.end());
    std::size_t next_target = 0;
    for (double t : times) {
      IngestBatch batch;
      batch.due_s = t;
      batch.target = ingest_targets[next_target];
      next_target = (next_target + 1) % ingest_targets.size();
      batch.values = ZipfBatch(ingest_rng, ingest_values);
      if (batch.target == 0) {
        batch.probe_copies = 1;
        AddProbeCopies(&batch.values, batch.probe_copies);
      }
      plan.trickle.push_back(std::move(batch));
    }
  }
  return plan;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
