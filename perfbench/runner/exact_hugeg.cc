// exact_hugeg: huge group count on the exact path. A single caller runs
// ExecuteExact of AVG(value) GROUP BY k1, k2 over 3M rows whose two int64
// keys are uniform in [0, 4096), which gives about 2.7M groups — the table
// of BM_AdaptiveGroupByHugeG. Group-id build, accumulation and result
// materialization dominate; nothing is sampled.
//
// Check: every answer's group count and order-independent value checksum
// equal the ones computed once in set-up by an independent sort-based
// aggregation (ascending-row sums per group, so AVG bit patterns match).
//
// Traced run: ExecuteExact with GroupIndex::Build, AccumulateGrouped and
// FinalizeGrouped timed again separately on the same inputs;
// materialization is ExecuteExact minus those three.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "perfbench/runner/trace.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/table/table_builder.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 3'000'000;
constexpr uint64_t kKeyDomain = 4096;

struct Digest {
  size_t groups = 0;
  uint64_t xor_mix = 0;
  uint64_t sum_mix = 0;
  bool operator==(const Digest& o) const {
    return groups == o.groups && xor_mix == o.xor_mix && sum_mix == o.sum_mix;
  }
};

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

void AddGroup(int64_t k1, int64_t k2, double avg, Digest* d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &avg, sizeof(bits));
  const uint64_t h =
      Mix(Mix(static_cast<uint64_t>(k1) * kKeyDomain + static_cast<uint64_t>(k2)) ^ bits);
  d->xor_mix ^= h;
  d->sum_mix += h;
  ++d->groups;
}

Digest DigestOf(const cvopt::QueryResult& r) {
  Digest d;
  for (size_t i = 0; i < r.num_groups(); ++i) {
    const int64_t* k = r.key_codes(i);
    AddGroup(k[0], k[1], r.value(i, 0), &d);
  }
  return d;
}

struct State {
  std::unique_ptr<cvopt::Table> table;
  cvopt::QuerySpec query;
  Digest expected;
};

std::unique_ptr<State> SetUp(const Options& opts, Report* report) {
  auto s = std::make_unique<State>();
  cvopt::TableBuilder b(cvopt::Schema({{"k1", cvopt::DataType::kInt64},
                                       {"k2", cvopt::DataType::kInt64},
                                       {"value", cvopt::DataType::kDouble}}));
  b.Reserve(kRows);
  cvopt::Rng rng(opts.seed);
  std::vector<uint64_t> order(kRows);  // packed key << 22 | row
  std::vector<double> values(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const uint64_t k1 = rng.Uniform(kKeyDomain);
    const uint64_t k2 = rng.Uniform(kKeyDomain);
    values[i] = rng.NextGaussian();
    b.MutableColumn(0)->AppendInt(static_cast<int64_t>(k1));
    b.MutableColumn(1)->AppendInt(static_cast<int64_t>(k2));
    b.MutableColumn(2)->AppendDouble(values[i]);
    order[i] = ((k1 * kKeyDomain + k2) << 22) | i;
  }
  s->table = std::make_unique<cvopt::Table>(std::move(b).Finish());
  s->query.group_by = {"k1", "k2"};
  s->query.aggregates = {cvopt::AggSpec::Avg("value")};

  // Reference: sort (key, row) pairs, then sum each group in ascending row
  // order, as the engine's determinism contract does.
  std::sort(order.begin(), order.end());
  for (size_t i = 0; i < kRows;) {
    const uint64_t key = order[i] >> 22;
    double sum = 0;
    uint64_t n = 0;
    for (; i < kRows && (order[i] >> 22) == key; ++i) {
      sum += values[order[i] & ((1u << 22) - 1)];
      ++n;
    }
    AddGroup(static_cast<int64_t>(key / kKeyDomain), static_cast<int64_t>(key % kKeyDomain),
             sum / static_cast<double>(n), &s->expected);
  }
  report->Info("groups", static_cast<double>(s->expected.groups), "count");
  return s;
}

struct LoopResult {
  std::vector<Window> windows;
  // Of the last traced query.
  size_t groups = 0;
  uint64_t estimated_groups = 0;
  uint64_t sort_decisions = 0;
};

// Closed loop of ExecuteExact for `seconds` of query time; with a tracer,
// each query also gets its children timed separately.
LoopResult QueryLoop(const State& s, double seconds, Tracer* tracer, Report* report) {
  LoopResult out;
  WindowedLoop loop(1.0);
  uint64_t failed = 0;
  for (uint64_t req = 0; loop.busy_s() < seconds; ++req) {
    const GlobalCounters before = tracer ? ReadGlobalCounters() : GlobalCounters{};
    const auto t0 = Clock::now();
    const int64_t root = tracer ? tracer->Begin("exec.execute_exact", req) : -1;
    {
      auto result = cvopt::ExecuteExact(*s.table, s.query);
      if (tracer) tracer->End(root);
      loop.Add(SecondsSince(t0));
      if (!result.ok() || !(DigestOf(*result) == s.expected)) {
        ++failed;
        report->Fail("huge-G answer differs from the set-up digest");
        continue;
      }
      if (tracer == nullptr) continue;
      const GlobalCounters after = ReadGlobalCounters();
      out.groups = result->num_groups();
      out.estimated_groups = after.planner.last_estimated_groups;
      out.sort_decisions = after.planner.sort_decisions - before.planner.sort_decisions;
    }

    // Children, on the same inputs, after the result is released so they
    // see the same heap state.
    int64_t sp = tracer->Begin("exec.group_index_build", req, root);
    auto gidx = cvopt::GroupIndex::Build(*s.table, s.query.group_by);
    tracer->End(sp);
    if (!gidx.ok()) continue;
    sp = tracer->Begin("exec.accumulate", req, root);
    auto acc = cvopt::AccumulateGrouped(*s.table, s.query, *gidx, nullptr);
    tracer->End(sp);
    if (!acc.ok()) continue;
    sp = tracer->Begin("exec.finalize", req, root);
    const std::vector<double> finals = cvopt::FinalizeGrouped(s.query.aggregates, &*acc);
    tracer->End(sp);
    if (finals.size() != gidx->num_groups()) report->Fail("finalize size");
  }
  report->CountOps(loop.ops(), failed);
  out.windows = loop.Finish();
  return out;
}

}  // namespace

void RunExactHugeG(const Options& opts, Report* report) {
  std::unique_ptr<State> s = SetUpRepeatedly<State>(
      opts.setup_reps, report, [&] { return SetUp(opts, report); });
  if (!opts.trace) {
    const LoopResult r = QueryLoop(*s, opts.seconds, nullptr, report);
    AddLatencyMetrics(r.windows, report);
    return;
  }
  const LoopResult plain = QueryLoop(*s, opts.seconds / 2, nullptr, report);
  Tracer tracer;
  const LoopResult traced = QueryLoop(*s, opts.seconds / 2, &tracer, report);
  AddTraceOverhead(plain.windows, traced.windows, report);
  report->Add("exec.group_index_build_ms", MedianOf(tracer, "exec.group_index_build", 1e3),
              "ms");
  report->Add("exec.accumulate_ms", MedianOf(tracer, "exec.accumulate", 1e3), "ms");
  report->Add("exec.finalize_ms", MedianOf(tracer, "exec.finalize", 1e3), "ms");
  report->Add("exec.groups", static_cast<double>(traced.groups), "count");
  report->Add("exec.planner_estimated_groups", static_cast<double>(traced.estimated_groups),
              "count");
  report->Add("exec.planner_sort_decisions", static_cast<double>(traced.sort_decisions),
              "count");
  report->Add("exec.materialize_ms",
              MedianSelf(tracer, "exec.execute_exact",
                         {"exec.group_index_build", "exec.accumulate", "exec.finalize"}, 1e3),
              "ms");
  if (!opts.trace_out.empty()) {
    report->Check(tracer.WriteJsonl(opts.trace_out), "write spans");
  }
}

}  // namespace perfbench
