// mapped_scan: the out-of-core path. A single caller runs
// ExecuteGroupByMapped over two v2 table files written in set-up, with rows
// reordered by (year, month) as time-ordered ingestion would leave them,
// so zone maps can skip chunks. The hot file (500k rows) fits the default
// 64 MiB decoded-chunk cache; the cold file (4M rows, ~200 MB decoded)
// does not. Operations follow a fixed repeating sequence: three hot
// queries, then one cold query, with the query cycling through AQ3.b, AQ4,
// AQ1(2018) and AQ2 — the loop ends on a whole 16-operation cycle so every
// run measures the same mix.
//
// Check: every answer is bitwise equal to a serial ExecuteExact over the
// materialized file, computed in set-up.
//
// Traced run: per-file scan spans, chunk-cache and zone-skip counters over
// the traced loop, file write and open times, and a cold GetChunk pass over
// the queried columns of a freshly opened hot file.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "perfbench/runner/queries.h"
#include "perfbench/runner/trace.h"
#include "src/datagen/openaq_gen.h"
#include "src/exec/chunked_scan.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/parallel.h"
#include "src/table/mapped_table.h"
#include "src/table/table_io.h"

namespace perfbench {
namespace {

constexpr uint64_t kHotRows = 500'000;
constexpr uint64_t kColdRows = 4'000'000;
constexpr size_t kCycle = 16;  // operations per full hot/cold x query cycle
constexpr int kSetUpReps = 3;
// Any positive duration: the loop then runs exactly one whole cycle.
constexpr double kWarmUpSeconds = 1e-9;

struct File {
  std::string path;
  std::unique_ptr<cvopt::MappedTable> mapped;
  std::vector<cvopt::QueryResult> expected;  // per query
};

struct State {
  std::vector<std::string> sql;
  std::vector<cvopt::QuerySpec> queries;
  File hot, cold;
  double write_s = 0;
  double open_s = 0;
  ~State() {
    hot.mapped.reset();
    cold.mapped.reset();
    std::remove(hot.path.c_str());
    std::remove(cold.path.c_str());
  }
};

// Generates an OpenAQ table, reorders it by (year, month) and writes it.
cvopt::Table OrderedOpenAq(uint64_t rows, uint64_t seed) {
  cvopt::OpenAqOptions gen;
  gen.num_rows = rows;
  gen.seed = seed;
  const cvopt::Table t = cvopt::GenerateOpenAq(gen);
  const auto& year = t.column(*t.ColumnIndex("year")).ints();
  const auto& month = t.column(*t.ColumnIndex("month")).ints();
  // Stable counting sort over the 4 x 12 (year, month) buckets.
  auto bucket = [&](size_t r) {
    return static_cast<size_t>((year[r] - 2015) * 12 + (month[r] - 1));
  };
  std::vector<size_t> base(48 + 1, 0);
  for (size_t r = 0; r < t.num_rows(); ++r) ++base[bucket(r) + 1];
  for (size_t b = 0; b < 48; ++b) base[b + 1] += base[b];
  std::vector<uint32_t> perm(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    perm[base[bucket(r)]++] = static_cast<uint32_t>(r);
  }
  return t.TakeRows(perm);
}

void MakeFile(const State& s, uint64_t rows, uint64_t seed, double* write_s,
              double* open_s, File* f, Report* report) {
  {
    const cvopt::Table t = OrderedOpenAq(rows, seed);
    const auto t0 = Clock::now();
    report->Check(cvopt::WriteTableFile(t, f->path).ok(), "write " + f->path);
    *write_s += SecondsSince(t0);
  }
  const auto t0 = Clock::now();
  auto mapped = cvopt::MappedTable::Open(f->path);
  *open_s += SecondsSince(t0);
  report->Check(mapped.ok(), "open " + f->path);
  if (!mapped.ok()) return;
  f->mapped = std::make_unique<cvopt::MappedTable>(std::move(mapped).value());

  // The reference runs serially: the in-memory executor's float sums are
  // bit-exact to the ascending-row order only with one thread, while the
  // mapped scan's are for every thread count.
  auto table = f->mapped->Materialize();
  report->Check(table.ok(), "materialize " + f->path);
  if (!table.ok()) return;
  const cvopt::ExecOptions saved = cvopt::GetExecOptions();
  cvopt::ExecOptions serial = saved;
  serial.num_threads = 1;
  cvopt::SetExecOptions(serial);
  for (const auto& q : s.queries) {
    auto exact = cvopt::ExecuteExact(*table, q);
    report->Check(exact.ok(), "exact answer over " + f->path);
    if (exact.ok()) f->expected.push_back(std::move(exact).value());
  }
  cvopt::SetExecOptions(saved);
}

std::unique_ptr<State> SetUp(const Options& opts, Report* report) {
  auto s = std::make_unique<State>();
  s->sql = {Aq3Sql(11), kAq4Sql, kAq1Y2018Sql, kAq2Sql};
  for (const std::string& sql : s->sql) s->queries.push_back(MustParse(sql));
  s->hot.path = opts.data_dir + "/hot.cvtb";
  s->cold.path = opts.data_dir + "/cold.cvtb";
  MakeFile(*s, kHotRows, opts.seed, &s->write_s, &s->open_s, &s->hot, report);
  MakeFile(*s, kColdRows, opts.seed + 1, &s->write_s, &s->open_s, &s->cold, report);
  return s;
}

// Operation k: cold on every fourth, hot otherwise; the query index shifts
// by one per block of four so each query also runs cold.
bool IsCold(size_t k) { return k % 4 == 3; }
size_t QueryOf(size_t k) { return (k + k / 4) % 4; }

// Closed loop until `seconds` of scan time have passed and a whole cycle
// is complete; each window holds whole cycles.
std::vector<Window> ScanLoop(const State& s, double seconds, Tracer* tracer,
                             Report* report) {
  WindowedLoop loop(1.0, kCycle);
  uint64_t failed = 0;
  for (size_t k = 0; loop.busy_s() < seconds || k % kCycle != 0; ++k) {
    const File& f = IsCold(k) ? s.cold : s.hot;
    const size_t qi = QueryOf(k);
    const auto t0 = Clock::now();
    const int64_t sp =
        tracer ? tracer->Begin(IsCold(k) ? "exec.mapped_cold" : "exec.mapped_hot", k) : -1;
    auto result = cvopt::ExecuteGroupByMapped(*f.mapped, s.queries[qi]);
    if (tracer) tracer->End(sp);
    loop.Add(SecondsSince(t0));
    if (!result.ok() || !SameResult(*result, f.expected[qi])) {
      ++failed;
      report->Fail("mapped answer differs from ExecuteExact: " + s.sql[qi]);
    }
  }
  report->CountOps(loop.ops(), failed);
  return loop.Finish();
}

// Decodes every chunk of the queried columns of a freshly opened file (new
// cache identity, so every chunk misses); returns seconds.
double ColdDecodePass(const File& f, Report* report) {
  auto mapped = cvopt::MappedTable::Open(f.path);
  report->Check(mapped.ok(), "reopen " + f.path);
  if (!mapped.ok()) return 0;
  std::vector<size_t> cols;
  for (const char* name : {"country", "parameter", "unit", "value", "year", "month", "hour"}) {
    auto c = mapped->schema().FindColumn(name);
    if (c.ok()) cols.push_back(*c);
  }
  const auto t0 = Clock::now();
  for (size_t c : cols) {
    for (size_t k = 0; k < mapped->num_chunks(); ++k) {
      report->Check(mapped->GetChunk(c, k).ok(), "decode chunk");
    }
  }
  return SecondsSince(t0);
}

}  // namespace

void RunMappedScan(const Options& opts, Report* report) {
  // Three set-ups, not five: each writes and checks 4.5M rows, and the
  // time saved goes to the measured loop.
  std::unique_ptr<State> s = SetUpRepeatedly<State>(
      std::min(opts.setup_reps, kSetUpReps), report, [&] { return SetUp(opts, report); });
  if (!report->correct()) return;
  // One untimed, checked cycle first, so the timed loop starts from the
  // chunk cache's steady state rather than from an empty cache.
  ScanLoop(*s, kWarmUpSeconds, nullptr, report);
  report->Info("hot_rows", kHotRows, "count");
  report->Info("cold_rows", kColdRows, "count");
  report->Info("chunk_cache_budget_mb",
               static_cast<double>(cvopt::ChunkCacheBudgetBytes()) / (1 << 20), "MiB");
  if (!opts.trace) {
    AddLatencyMetrics(ScanLoop(*s, opts.seconds, nullptr, report), report);
    return;
  }
  report->Add("table.write_ms", s->write_s * 1e3, "ms");
  report->Add("table.open_ms", s->open_s * 1e3, "ms");
  const std::vector<Window> plain = ScanLoop(*s, opts.seconds / 2, nullptr, report);
  Tracer tracer;
  const GlobalCounters before = ReadGlobalCounters();
  const std::vector<Window> traced = ScanLoop(*s, opts.seconds / 2, &tracer, report);
  const GlobalCounters after = ReadGlobalCounters();
  AddTraceOverhead(plain, traced, report);

  const double hits = static_cast<double>(after.chunks.hits - before.chunks.hits);
  const double misses = static_cast<double>(after.chunks.misses - before.chunks.misses);
  const double chunks = static_cast<double>(after.zones.chunks - before.zones.chunks);
  report->Add("table.chunk_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
              "ratio");
  report->Add("table.chunk_misses", misses, "count");
  report->Add("table.chunk_evictions",
              static_cast<double>(after.chunks.evictions - before.chunks.evictions), "count");
  report->Add("expr.zone_skip_ratio",
              chunks > 0 ? static_cast<double>(after.zones.skipped - before.zones.skipped) /
                               chunks
                         : 0,
              "ratio");
  report->Add("exec.mapped_hot_ms", MedianOf(tracer, "exec.mapped_hot", 1e3), "ms");
  report->Add("exec.mapped_cold_ms", MedianOf(tracer, "exec.mapped_cold", 1e3), "ms");
  report->Add("table.decode_ms", ColdDecodePass(s->hot, report) * 1e3, "ms");
  if (!opts.trace_out.empty()) {
    report->Check(tracer.WriteJsonl(opts.trace_out), "write spans");
  }
}

}  // namespace perfbench
