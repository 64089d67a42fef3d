// sample_build: the offline phase. A single caller runs
// AqpEngine::BuildSample with the CVOPT sampler, tuned for the
// multi-aggregate, multi-group-by set {AQ2, AQ3.b, AQ4, AQ5}, at 1% of a
// 2M-row OpenAQ table, back to back.
//
// After each build, untimed: the sample must hold exactly its row budget,
// and the four queries are answered with ExecuteApprox and compared with
// the exact answers computed in set-up. Quality is pooled over the first
// kQualityBuilds builds (run untimed if the time ran out first), so it
// repeats exactly for a seed.
//
// Traced run: the same build as its public stages — PlanCvoptAllocation
// then DrawStratified — with Stratification::Build and CollectGroupStats
// timed again separately on the same inputs, so allocation self time is
// the plan minus those two.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/runner/bench.h"
#include "perfbench/runner/queries.h"
#include "perfbench/runner/trace.h"
#include "src/aqp/engine.h"
#include "src/core/cvopt_allocator.h"
#include "src/core/stratification.h"
#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/estimate/error_report.h"
#include "src/exec/aggregate.h"
#include "src/exec/group_by_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/stats/stats_collector.h"

namespace perfbench {
namespace {

constexpr double kRate = 0.01;
constexpr uint64_t kRows = 2'000'000;
constexpr size_t kQualityBuilds = 8;

struct State {
  std::unique_ptr<cvopt::Table> table;
  std::vector<std::string> sql;
  std::vector<cvopt::QuerySpec> queries;
  std::vector<cvopt::QueryResult> exact;
  uint64_t budget = 0;
};

std::unique_ptr<State> SetUp(const Options& opts, Report* report) {
  auto s = std::make_unique<State>();
  cvopt::OpenAqOptions gen;
  gen.num_rows = kRows;
  gen.seed = opts.seed;
  s->table = std::make_unique<cvopt::Table>(cvopt::GenerateOpenAq(gen));
  s->sql = {kAq2Sql, Aq3Sql(11), kAq4Sql, kAq5Sql};
  for (const std::string& sql : s->sql) {
    s->queries.push_back(MustParse(sql));
    auto exact = cvopt::ExecuteExact(*s->table, s->queries.back());
    report->Check(exact.ok(), "exact answer: " + sql);
    if (exact.ok()) s->exact.push_back(std::move(exact).value());
  }
  s->budget = static_cast<uint64_t>(
      std::llround(kRate * static_cast<double>(s->table->num_rows())));
  return s;
}

struct Quality {
  double sum = 0;
  double max = 0;
  size_t n = 0;
  size_t exhaustive = 0;
  size_t strata = 0;
};

// The untimed per-build check: row budget met, every query answered and
// compared. Adds the errors to `q` when given.
bool CheckBuild(const State& s, const cvopt::StratifiedSample& sample,
                Quality* q, Report* report) {
  if (sample.size() != s.budget) {
    report->Fail("sample size " + std::to_string(sample.size()) +
                 " != budget " + std::to_string(s.budget));
    return false;
  }
  for (size_t i = 0; i < s.queries.size(); ++i) {
    auto approx = cvopt::ExecuteApprox(sample, s.queries[i]);
    if (!approx.ok()) {
      report->Fail("approximate answer failed: " + s.sql[i]);
      return false;
    }
    auto err = cvopt::CompareResults(s.exact[i], *approx);
    if (!err.ok()) {
      report->Fail("compare failed: " + s.sql[i]);
      return false;
    }
    if (q != nullptr) {
      for (double e : err->errors) {
        q->sum += e;
        q->max = std::max(q->max, e);
        ++q->n;
      }
    }
  }
  if (q != nullptr) {
    q->exhaustive += sample.num_exhaustive_strata();
    q->strata += sample.stratification() ? sample.stratification()->num_strata() : 0;
  }
  return true;
}

void AddQuality(const Quality& q, Report* report) {
  report->Info("avg_rel_error", q.n > 0 ? q.sum / static_cast<double>(q.n) : 0, "ratio");
  report->Info("max_rel_error", q.max, "ratio");
  report->Info("quality_builds", kQualityBuilds, "count");
  report->Info("exhaustive_strata", static_cast<double>(q.exhaustive) / kQualityBuilds,
               "count");
  report->Info("total_strata", static_cast<double>(q.strata) / kQualityBuilds, "count");
}

// Closed loop of engine builds for `seconds` of build time, continuing
// untimed until at least `min_builds` have run.
std::vector<Window> BuildLoop(const State& s, uint64_t seed, double seconds,
                              size_t min_builds, Quality* quality, Report* report) {
  cvopt::AqpEngine engine(s.table.get(), seed);
  const cvopt::CvoptSampler sampler;
  WindowedLoop loop(1.0);
  uint64_t failed = 0;
  for (size_t i = 0; loop.busy_s() < seconds || i < min_builds; ++i) {
    const auto t0 = Clock::now();
    const cvopt::Status st = engine.BuildSample("s", sampler, s.queries, kRate);
    const double dt = SecondsSince(t0);
    if (loop.busy_s() < seconds) loop.Add(dt);
    auto sample = engine.GetSample("s");
    bool ok = st.ok() && sample.ok();
    if (!ok) report->Fail("build failed: " + st.ToString());
    ok = ok && CheckBuild(s, **sample, i < kQualityBuilds ? quality : nullptr, report);
    if (!ok) ++failed;
  }
  report->CountOps(loop.ops(), failed);
  return loop.Finish();
}

struct SampleCounts {
  size_t rows = 0;
  size_t strata = 0;
  size_t exhaustive = 0;
};

// One build as its public stages, with spans; request id `req`. The plan's
// children run after the build's own objects are released, so both see the
// same heap state.
bool TracedBuild(const State& s, cvopt::Rng* rng, Tracer* tracer, uint64_t req,
                 double* op_s, SampleCounts* counts, Report* report) {
  int64_t plan_span = -1;
  {
    const auto t0 = Clock::now();
    plan_span = tracer->Begin("core.plan", req);
    auto plan = cvopt::PlanCvoptAllocation(*s.table, s.queries, s.budget);
    tracer->End(plan_span);
    if (!plan.ok()) return false;
    const int64_t sp = tracer->Begin("sample.draw", req);
    auto sample = cvopt::DrawStratified(*s.table, plan->strat, plan->allocation.sizes,
                                        "CVOPT", rng);
    tracer->End(sp);
    *op_s = SecondsSince(t0);
    if (!sample.ok() || !CheckBuild(s, *sample, nullptr, report)) return false;

    // The per-build comparison, timed on its own.
    std::vector<cvopt::QueryResult> approx;
    for (const auto& q : s.queries) {
      auto a = cvopt::ExecuteApprox(*sample, q);
      if (!a.ok()) return false;
      approx.push_back(std::move(a).value());
    }
    const int64_t cmp = tracer->Begin("estimate.compare", req);
    for (size_t i = 0; i < approx.size(); ++i) {
      if (!cvopt::CompareResults(s.exact[i], approx[i]).ok()) return false;
    }
    tracer->End(cmp);
    counts->rows = sample->size();
    counts->strata = plan->strat->num_strata();
    counts->exhaustive = sample->num_exhaustive_strata();
  }

  // Children of the plan, on the same inputs.
  std::vector<std::vector<std::string>> attr_sets;
  for (const auto& q : s.queries) attr_sets.push_back(q.group_by);
  int64_t sp = tracer->Begin("core.stratify", req, plan_span);
  auto strat = cvopt::Stratification::Build(*s.table, cvopt::UnionAttrs(attr_sets));
  tracer->End(sp);
  if (!strat.ok()) return false;
  sp = tracer->Begin("stats.collect", req, plan_span);
  for (const auto& q : s.queries) {
    auto bound = cvopt::BoundAggregates::Bind(*s.table, q.aggregates);
    if (!bound.ok() || !cvopt::CollectGroupStats(*strat, bound->sources()).ok()) {
      return false;
    }
  }
  tracer->End(sp);
  return true;
}

void RunTraced(const State& s, const Options& opts, Report* report) {
  Quality quality;
  const std::vector<Window> plain =
      BuildLoop(s, opts.seed, opts.seconds / 2, kQualityBuilds, &quality, report);
  AddQuality(quality, report);

  Tracer tracer;
  cvopt::Rng rng(opts.seed);
  WindowedLoop loop(1.0);
  uint64_t failed = 0;
  SampleCounts counts;
  for (uint64_t i = 0; loop.busy_s() < opts.seconds / 2; ++i) {
    double op_s = 0;
    const bool ok = TracedBuild(s, &rng, &tracer, i, &op_s, &counts, report);
    loop.Add(op_s);
    if (!ok) {
      ++failed;
      report->Fail("traced build failed");
      break;
    }
  }
  report->CountOps(loop.ops(), failed);
  AddTraceOverhead(plain, loop.Finish(), report);
  report->Add("core.stratify_ms", MedianOf(tracer, "core.stratify", 1e3), "ms");
  report->Add("stats.collect_ms", MedianOf(tracer, "stats.collect", 1e3), "ms");
  report->Add("core.allocate_ms",
              MedianSelf(tracer, "core.plan", {"core.stratify", "stats.collect"}, 1e3),
              "ms");
  report->Add("core.plan_ms", MedianOf(tracer, "core.plan", 1e3), "ms");
  report->Add("sample.draw_ms", MedianOf(tracer, "sample.draw", 1e3), "ms");
  report->Add("estimate.compare_ms", MedianOf(tracer, "estimate.compare", 1e3), "ms");
  report->Add("sample.rows", static_cast<double>(counts.rows), "count");
  report->Add("sample.strata", static_cast<double>(counts.strata), "count");
  report->Add("sample.exhaustive_strata", static_cast<double>(counts.exhaustive),
              "count");
  if (!opts.trace_out.empty()) {
    report->Check(tracer.WriteJsonl(opts.trace_out), "write spans");
  }
}

}  // namespace

void RunSampleBuild(const Options& opts, Report* report) {
  std::unique_ptr<State> s = SetUpRepeatedly<State>(
      opts.setup_reps, report, [&] { return SetUp(opts, report); });
  if (!report->correct()) return;
  if (opts.trace) {
    RunTraced(*s, opts, report);
    return;
  }
  Quality quality;
  const std::vector<Window> windows =
      BuildLoop(*s, opts.seed, opts.seconds, kQualityBuilds, &quality, report);
  AddQuality(quality, report);
  AddLatencyMetrics(windows, report);
}

}  // namespace perfbench
