// serve_hit: the online phase. An in-process AqpServer over AF_UNIX serves
// SQL group-by queries from 1% CVOPT samples already in its catalog, to a
// closed loop of two connections (one per default pipeline worker). Each
// request is one query drawn by a seeded RNG from the paper's Table-5
// reuse mix, so the group count ranges from ~7 (AQ6) to ~1.8k (AQ4).
//
// Checks: every served answer has the bit patterns of a direct
// ExecuteApprox on the same catalog sample; every catalog sample has
// exactly its row budget. Quality (avg/max relative error against exact
// answers computed in set-up) is taken over the first 1000 requests of the
// seeded stream, so it repeats exactly for a seed.
//
// Traced run: half the time serves as above while the server's own
// histograms are scraped (queue, execute and transport split); the rest
// replays the same request stream in-process through the public calls the
// server makes, first untraced and then with spans.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/runner/bench.h"
#include "perfbench/runner/queries.h"
#include "perfbench/runner/trace.h"
#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/estimate/error_report.h"
#include "src/exec/agg_planner.h"
#include "src/exec/group_by_executor.h"
#include "src/expr/plan_cache.h"
#include "src/server/aqp_server.h"
#include "src/server/client.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr double kRate = 0.01;
constexpr uint64_t kRows = 2'000'000;
constexpr int kConnections = 2;
constexpr size_t kQualityRequests = 1000;

struct MixEntry {
  std::string sql;
  cvopt::QuerySpec query;
  cvopt::WireResult reference;  // direct ExecuteApprox on the catalog sample
  cvopt::ErrorReport error;     // that answer against the exact one
};

struct State {
  std::unique_ptr<cvopt::Table> table;
  std::unique_ptr<cvopt::AqpServer> server;  // destroyed before the table
  std::vector<MixEntry> mix;
  std::string socket_path;
};

// Connection `conn`'s request stream: indices into the mix.
cvopt::Rng StreamRng(uint64_t seed, int conn) {
  return cvopt::Rng(seed * 0x9E3779B97F4A7C15ULL + 0x5e17 + static_cast<uint64_t>(conn));
}

// Request i of the merged stream is request i / 2 of connection i % 2.
std::vector<size_t> MergedStream(uint64_t seed, size_t n, size_t mix_size) {
  std::vector<cvopt::Rng> rngs;
  for (int c = 0; c < kConnections; ++c) rngs.push_back(StreamRng(seed, c));
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = rngs[i % kConnections].Uniform(mix_size);
  return out;
}

cvopt::QueryRequestItem Item(const std::string& sql) {
  cvopt::QueryRequestItem item;
  item.sql = sql;
  item.sample_rate = kRate;
  return item;
}

std::unique_ptr<State> SetUp(const Options& opts, Report* report) {
  auto s = std::make_unique<State>();
  cvopt::OpenAqOptions gen;
  gen.num_rows = kRows;
  gen.seed = opts.seed;
  s->table = std::make_unique<cvopt::Table>(cvopt::GenerateOpenAq(gen));

  cvopt::ServerOptions so;
  so.socket_path = opts.data_dir + "/serve.sock";
  so.catalog_seed = opts.seed;
  s->socket_path = so.socket_path;
  s->server = std::make_unique<cvopt::AqpServer>(so);
  report->Check(s->server->RegisterTable("openaq", s->table.get()).ok(),
                "register table");
  report->Check(s->server->Start().ok(), "server start");

  for (const std::string& sql :
       {Aq3Sql(5), Aq3Sql(11), Aq3Sql(17), Aq3Sql(23), std::string(kAq5Sql),
        std::string(kAq2Sql), std::string(kAq4Sql), std::string(kAq6Sql)}) {
    MixEntry e;
    e.sql = sql;
    e.query = MustParse(sql);
    s->mix.push_back(std::move(e));
  }

  // Catalog warm-up through the wire: publishes one sample per workload
  // class of the mix.
  cvopt::AqpClient client;
  report->Check(client.Connect(s->socket_path).ok(), "warm-up connect");
  for (const MixEntry& e : s->mix) {
    auto resp = client.Query({Item(e.sql)});
    report->Check(resp.ok() && resp->results.size() == 1 &&
                      resp->results[0].status.ok(),
                  "warm-up query " + e.sql);
  }

  // Reference answers and their error against the exact answer.
  const uint64_t budget = static_cast<uint64_t>(
      std::llround(kRate * static_cast<double>(s->table->num_rows())));
  std::set<const cvopt::StratifiedSample*> samples;
  size_t exhaustive = 0, strata = 0;
  for (MixEntry& e : s->mix) {
    bool hit = false;
    auto sample = s->server->catalog().GetOrBuild(*s->table, e.query, kRate, &hit);
    report->Check(sample.ok() && hit, "catalog hit after warm-up: " + e.sql);
    if (!sample.ok()) continue;
    const cvopt::StratifiedSample& smp = **sample;
    if (samples.insert(&smp).second) {
      report->Check(smp.size() == budget, "catalog sample size equals its budget");
      exhaustive += smp.num_exhaustive_strata();
      strata += smp.stratification() ? smp.stratification()->num_strata() : 0;
    }
    auto approx = cvopt::ExecuteApprox(smp, e.query);
    auto exact = cvopt::ExecuteExact(*s->table, e.query);
    report->Check(approx.ok() && exact.ok(), "reference answers: " + e.sql);
    if (!approx.ok() || !exact.ok()) continue;
    e.reference = cvopt::FlattenResult(*approx);
    auto err = cvopt::CompareResults(*exact, *approx);
    report->Check(err.ok(), "compare: " + e.sql);
    if (err.ok()) e.error = std::move(err).value();
  }
  report->Info("catalog_samples", static_cast<double>(samples.size()), "count");
  report->Info("exhaustive_strata", static_cast<double>(exhaustive), "count");
  report->Info("total_strata", static_cast<double>(strata), "count");
  return s;
}

// Quality over the first kQualityRequests of the seeded stream. Served
// answers are checked bit-identical to the references, so their errors are
// the references' errors.
void AddQuality(const State& s, uint64_t seed, Report* report) {
  double sum = 0, max = 0;
  size_t n = 0;
  for (size_t idx : MergedStream(seed, kQualityRequests, s.mix.size())) {
    for (double e : s.mix[idx].error.errors) {
      sum += e;
      max = std::max(max, e);
      ++n;
    }
  }
  report->Info("avg_rel_error", n > 0 ? sum / static_cast<double>(n) : 0, "ratio");
  report->Info("max_rel_error", max, "ratio");
  report->Info("quality_requests", static_cast<double>(kQualityRequests), "count");
}

// Closed loop: kConnections clients, each sending its next request when the
// previous answer arrives, for `seconds`. Operations are binned into 1 s
// wall-clock windows by completion time.
std::vector<Window> ServeLoop(const State& s, uint64_t seed, double seconds,
                              Report* report) {
  struct PerConn {
    std::vector<double> lat;
    std::vector<double> done_at;  // completion, seconds after start
    std::vector<std::string> errors;
    uint64_t failed = 0;
  };
  std::vector<PerConn> conns(kConnections);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start, deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PerConn& pc = conns[static_cast<size_t>(c)];
      cvopt::AqpClient client;
      const bool connected = client.Connect(s.socket_path).ok();
      cvopt::Rng rng = StreamRng(seed, c);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!connected) {
        pc.errors.push_back("connect failed");
        pc.failed = 1;
        return;
      }
      pc.lat.reserve(1 << 16);
      pc.done_at.reserve(1 << 16);
      while (Clock::now() < deadline) {
        const size_t idx = rng.Uniform(s.mix.size());
        const auto t0 = Clock::now();
        auto resp = client.Query({Item(s.mix[idx].sql)});
        const auto t1 = Clock::now();
        pc.lat.push_back(std::chrono::duration<double>(t1 - t0).count());
        pc.done_at.push_back(std::chrono::duration<double>(t1 - start).count());
        const bool ok = resp.ok() && resp->results.size() == 1 &&
                        resp->results[0].status.ok() &&
                        SameWire(resp->results[0].result, s.mix[idx].reference);
        if (!ok) {
          ++pc.failed;
          if (pc.errors.size() < 5) {
            pc.errors.push_back("served answer differs or failed: " + s.mix[idx].sql);
          }
        }
      }
    });
  }
  while (ready.load() < kConnections) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const size_t num_windows = std::max<size_t>(1, static_cast<size_t>(seconds));
  const double window_s = seconds / static_cast<double>(num_windows);
  std::vector<Window> windows(num_windows);
  LapMeter meter;
  go.store(true, std::memory_order_release);
  for (size_t w = 0; w < num_windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(window_s * static_cast<double>(w + 1))));
    windows[w].host = meter.Lap();
    windows[w].seconds = window_s;
  }
  for (auto& t : threads) t.join();

  for (const PerConn& pc : conns) {
    for (size_t i = 0; i < pc.lat.size(); ++i) {
      // An operation still in flight at the deadline lands in the last window.
      const size_t w = std::min(num_windows - 1, static_cast<size_t>(pc.done_at[i] / window_s));
      windows[w].latencies.push_back(pc.lat[i]);
    }
    report->CountOps(std::max<size_t>(pc.lat.size(), pc.failed), pc.failed);
    for (const std::string& e : pc.errors) report->Fail(e);
  }
  return windows;
}

// The server's per-query path as public calls, in-process: parse, catalog
// lookup, approximate execution, flatten, response encode and client-side
// decode. Returns false when a call fails or the decoded answer differs
// from the reference; `chain_s` receives the path's wall time. With a
// tracer, each call gets a span and, after the path, the two public
// children of ExecuteApprox are timed again separately on the same inputs.
bool ReplayOne(const State& s, const MixEntry& e, Tracer* tracer, uint64_t req,
               double* chain_s) {
  const auto t0 = Clock::now();
  auto span = [&](const char* name) -> int64_t {
    return tracer ? tracer->Begin(name, req) : -1;
  };
  auto end = [&](int64_t id) {
    if (tracer) tracer->End(id);
  };

  int64_t sp = span("sql.parse");
  auto parsed = cvopt::ParseSql(e.sql);
  end(sp);
  if (!parsed.ok()) return false;
  const cvopt::QuerySpec& q = parsed->query;

  sp = span("server.catalog_lookup");
  bool hit = false;
  auto sample = s.server->catalog().GetOrBuild(*s.table, q, kRate, &hit);
  end(sp);
  if (!sample.ok() || !hit) return false;

  const int64_t approx_span = span("estimate.approx");
  auto result = cvopt::ExecuteApprox(**sample, q);
  end(approx_span);
  if (!result.ok()) return false;

  sp = span("server.flatten");
  cvopt::ResponseEnvelope env;
  env.results.emplace_back();
  env.results[0].served_from = cvopt::ServedFrom::kCatalogHit;
  env.results[0].result = cvopt::FlattenResult(*result);
  end(sp);

  sp = span("server.encode");
  std::string payload;
  cvopt::EncodeResponse(env, &payload);
  end(sp);

  sp = span("server.decode");
  auto decoded = cvopt::DecodeResponse(payload);
  end(sp);
  const bool ok = decoded.ok() && decoded->results.size() == 1 &&
                  SameWire(decoded->results[0].result, e.reference);
  *chain_s = SecondsSince(t0);
  if (tracer == nullptr) return ok;

  const cvopt::StratifiedSample& smp = **sample;
  const cvopt::Table& base = smp.base();
  bool children_ok = true;
  {
    ScopedSpan child(tracer, "exec.group_index_rows", req, approx_span);
    cvopt::ScopedAggOccupancyHint hint(smp.observed_strata());
    children_ok &= cvopt::GroupIndex::BuildForRows(base, q.group_by, smp.rows()).ok();
  }
  if (q.where != nullptr) {
    ScopedSpan child(tracer, "expr.select", req, approx_span);
    auto where = cvopt::CompilePredicateCached(base, q.where);
    children_ok &= where.ok() &&
                   (*where)->SelectPositions(smp.rows().data(), smp.size()).size() <=
                       smp.size();
  }
  return ok && children_ok;
}

// Single-threaded replay of the merged request stream for `seconds`.
std::vector<Window> ReplayLoop(const State& s, uint64_t seed, double seconds,
                               Tracer* tracer, Report* report) {
  WindowedLoop loop(1.0);
  const std::vector<size_t> stream = MergedStream(seed, 1 << 16, s.mix.size());
  const auto start = Clock::now();
  uint64_t failed = 0;
  for (size_t i = 0; SecondsSince(start) < seconds; ++i) {
    const MixEntry& e = s.mix[stream[i % stream.size()]];
    double chain_s = 0;
    if (!ReplayOne(s, e, tracer, i, &chain_s)) {
      ++failed;
      report->Fail("replayed answer differs or failed: " + e.sql);
    }
    loop.Add(chain_s);
  }
  report->CountOps(loop.ops(), failed);
  return loop.Finish();
}

void RunTraced(const State& s, const Options& opts, Report* report) {
  // Served phase: client round trips against the server's own histograms.
  const ServerScrape before = ScrapeServer(*s.server);
  const std::vector<Window> served = ServeLoop(s, opts.seed, opts.seconds / 2, report);
  const ServerScrape after = ScrapeServer(*s.server);
  auto delta = [&](const std::string& name) { return after.Get(name) - before.Get(name); };
  const double queries = delta("aqp_query_latency_seconds_count");
  const double requests = delta("aqp_request_latency_seconds_count");
  const double query_us =
      queries > 0 ? delta("aqp_query_latency_seconds_sum") / queries * 1e6 : 0;
  const double request_us =
      requests > 0 ? delta("aqp_request_latency_seconds_sum") / requests * 1e6 : 0;
  double rt_sum = 0, rt_n = 0;
  for (const Window& w : served) {
    for (double v : w.latencies) rt_sum += v;
    rt_n += static_cast<double>(w.latencies.size());
  }
  const double rt_us = rt_n > 0 ? rt_sum / rt_n * 1e6 : 0;
  const double hits = delta("aqp_catalog_hits_total");
  const double misses = delta("aqp_catalog_misses_total");
  report->Add("server.query_us", query_us, "us");
  report->Add("server.queue_us", request_us - query_us, "us");
  report->Add("server.transport_us", rt_us - request_us, "us");
  report->Add("server.catalog_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
              "ratio");
  report->Add("server.rejected", delta("aqp_requests_rejected_total"), "count");
  report->Info("served_qps", rt_n / (opts.seconds / 2), "1/s");

  // In-process replay of the same stream: untraced, then traced.
  const std::vector<Window> plain = ReplayLoop(s, opts.seed, opts.seconds / 4, nullptr, report);
  Tracer tracer;
  const std::vector<Window> traced = ReplayLoop(s, opts.seed, opts.seconds / 4, &tracer, report);
  AddTraceOverhead(plain, traced, report);

  report->Add("sql.parse_us", MedianOf(tracer, "sql.parse", 1e6), "us");
  report->Add("server.catalog_lookup_us", MedianOf(tracer, "server.catalog_lookup", 1e6),
              "us");
  report->Add("estimate.approx_us", MedianOf(tracer, "estimate.approx", 1e6), "us");
  report->Add("exec.group_index_rows_us", MedianOf(tracer, "exec.group_index_rows", 1e6),
              "us");
  report->Add("expr.select_us", MedianOf(tracer, "expr.select", 1e6), "us");
  report->Add("estimate.approx_self_us",
              MedianSelf(tracer, "estimate.approx", {"exec.group_index_rows", "expr.select"},
                         1e6),
              "us");
  report->Add("server.flatten_us", MedianOf(tracer, "server.flatten", 1e6), "us");
  report->Add("server.encode_us", MedianOf(tracer, "server.encode", 1e6), "us");
  report->Add("server.decode_us", MedianOf(tracer, "server.decode", 1e6), "us");
  if (!opts.trace_out.empty()) {
    report->Check(tracer.WriteJsonl(opts.trace_out), "write spans");
  }
}

}  // namespace

void RunServeHit(const Options& opts, Report* report) {
  std::unique_ptr<State> s = SetUpRepeatedly<State>(
      opts.setup_reps, report, [&] { return SetUp(opts, report); });
  if (!report->correct()) return;
  AddQuality(*s, opts.seed, report);
  if (opts.trace) {
    RunTraced(*s, opts, report);
    return;
  }
  AddLatencyMetrics(ServeLoop(*s, opts.seed, opts.seconds, report), report);
}

}  // namespace perfbench
