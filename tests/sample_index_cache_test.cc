// The per-sample query-time group-index cache (StratifiedSample::
// GroupIndexFor, consumed by ExecuteApprox): repeat queries on one sample
// reuse one build and answer bit-identically to a freshly built sample;
// concurrent first uses publish one index; failed or aborted builds are
// never cached; a catalog sample's index is released with the sample on
// LRU eviction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/query_context.h"
#include "src/sample/cvopt_sampler.h"
#include "src/server/sample_catalog.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

namespace fp = failpoint;

constexpr const char* kSite = "exec.group_index.alloc";

const Table& TestTable() {
  static const Table* t = [] {
    OpenAqOptions opts;
    opts.num_rows = 60000;
    return new Table(GenerateOpenAq(opts));
  }();
  return *t;
}

QuerySpec Query(bool filtered) {
  QuerySpec q;
  q.group_by = {"country", "parameter"};
  q.aggregates = {AggSpec::Avg("value"), AggSpec::Sum("value"),
                  AggSpec::Count(), AggSpec::Variance("value"),
                  AggSpec::Median("value")};
  if (filtered) q.where = Predicate::Between("hour", 0, 11);
  return q;
}

// Same seed, same workload: every call draws the identical sample, with an
// empty group-index cache of its own.
StratifiedSample FreshSample() {
  Rng rng(17);
  CvoptSampler sampler;
  return std::move(sampler.Build(TestTable(), {Query(false)}, 3000, &rng))
      .ValueOrDie();
}

void ExpectBitIdentical(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates());
  for (size_t g = 0; g < a.num_groups(); ++g) {
    ASSERT_EQ(a.label(g), b.label(g));
    const std::vector<double> va = a.values(g);
    const std::vector<double> vb = b.values(g);
    EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)),
              0)
        << "group " << a.label(g);
  }
}

// Arms the group-index fail-point site at `policy` (`off` only counts hits,
// one per build) and disarms everything on scope exit.
class ScopedSite {
 public:
  explicit ScopedSite(const std::string& policy) {
    fp::ClearForTesting();
    Status st = fp::SetForTesting(std::string(kSite) + ":" + policy);
    CVOPT_CHECK(st.ok(), "failpoint spec rejected");
  }
  ~ScopedSite() { fp::ClearForTesting(); }
  uint64_t builds() const { return fp::HitCount(kSite); }
};

TEST(SampleIndexCacheTest, RepeatQueriesReuseOneBuildBitIdentically) {
  const StratifiedSample sample = FreshSample();
  ScopedSite site("off");  // counts from here: the draw above is not a query
  for (bool filtered : {false, true}) {
    ASSERT_OK_AND_ASSIGN(QueryResult first,
                         ExecuteApprox(sample, Query(filtered)));
    ASSERT_OK_AND_ASSIGN(QueryResult repeat,
                         ExecuteApprox(sample, Query(filtered)));
    ExpectBitIdentical(first, repeat);
    // A freshly drawn, identical sample answers bit-identically from a
    // build of its own. Its draw groups rows too, so the draw's site hits
    // are counted apart from the query's one build.
    const uint64_t before_fresh = site.builds();
    const StratifiedSample fresh = FreshSample();
    const uint64_t sampler_builds = site.builds() - before_fresh;
    ASSERT_OK_AND_ASSIGN(QueryResult from_fresh,
                         ExecuteApprox(fresh, Query(filtered)));
    EXPECT_EQ(site.builds(), before_fresh + sampler_builds + 1);
    ExpectBitIdentical(first, from_fresh);
  }

  const uint64_t builds = site.builds();
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> a,
                       sample.GroupIndexFor(Query(false).group_by));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> b,
                       sample.GroupIndexFor(Query(false).group_by));
  EXPECT_EQ(a.get(), b.get());
  // Copies share the cache; another grouping gets its own index.
  const StratifiedSample copy = sample;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> c,
                       copy.GroupIndexFor(Query(false).group_by));
  EXPECT_EQ(a.get(), c.get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> coarse,
                       sample.GroupIndexFor({"parameter"}));
  EXPECT_NE(a.get(), coarse.get());
  EXPECT_LE(coarse->num_groups(), a->num_groups());
  EXPECT_EQ(site.builds(), builds + 1);  // only the new grouping built
}

TEST(SampleIndexCacheTest, ConcurrentFirstUsesPublishOneIndex) {
  const StratifiedSample sample = FreshSample();
  ASSERT_OK_AND_ASSIGN(QueryResult want,
                       ExecuteApprox(FreshSample(), Query(true)));
  ScopedSite site("off");
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const GroupIndex>> seen(kThreads);
  std::vector<Result<QueryResult>> answers(kThreads,
                                           Status::Internal("not run"));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      answers[i] = ExecuteApprox(sample, Query(true));
      auto gidx = sample.GroupIndexFor(Query(true).group_by);
      if (gidx.ok()) seen[i] = std::move(gidx).value();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(site.builds(), 1u);
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(seen[i], nullptr);
    EXPECT_EQ(seen[i].get(), seen[0].get());
    ASSERT_OK(answers[i].status());
    ExpectBitIdentical(answers[i].value(), want);
  }
}

TEST(SampleIndexCacheTest, InjectedBuildFailuresAreNotCached) {
  ASSERT_OK_AND_ASSIGN(QueryResult want,
                       ExecuteApprox(FreshSample(), Query(false)));
  for (const char* policy : {"error@1", "deadline@1", "cancel@1"}) {
    SCOPED_TRACE(policy);
    const StratifiedSample sample = FreshSample();
    ScopedSite site(policy);
    Result<QueryResult> failed = ExecuteApprox(sample, Query(false));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(site.builds(), 1u);
    // The next query rebuilds (second hit, not injected) and answers.
    ASSERT_OK_AND_ASSIGN(QueryResult retried,
                         ExecuteApprox(sample, Query(false)));
    EXPECT_EQ(site.builds(), 2u);
    ExpectBitIdentical(retried, want);
    ASSERT_OK(ExecuteApprox(sample, Query(false)).status());
    EXPECT_EQ(site.builds(), 2u);  // now cached
  }
}

TEST(SampleIndexCacheTest, GovernanceAbortedBuildIsNotCached) {
  ASSERT_OK_AND_ASSIGN(QueryResult want,
                       ExecuteApprox(FreshSample(), Query(false)));
  const StratifiedSample sample = FreshSample();
  ScopedSite site("off");
  {
    // The build's row->group reservation (4 B per sampled row) busts a
    // budget smaller than one row's mapping.
    QueryContext ctx;
    ctx.set_memory_limit(2);
    ScopedQueryContext install(&ctx);
    Result<QueryResult> aborted = ExecuteApprox(sample, Query(false));
    ASSERT_FALSE(aborted.ok());
    EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(ctx.budget().used(), 0u) << "reservation leaked";
  }
  EXPECT_EQ(site.builds(), 1u);
  ASSERT_OK_AND_ASSIGN(QueryResult retried,
                       ExecuteApprox(sample, Query(false)));
  EXPECT_EQ(site.builds(), 2u);
  ExpectBitIdentical(retried, want);
}

TEST(SampleIndexCacheTest, CatalogEvictionReleasesTheIndex) {
  const Table& table = TestTable();
  QuerySpec by_pair = Query(false);
  QuerySpec by_parameter = Query(false);
  by_parameter.group_by = {"parameter"};
  SampleCatalog catalog(7);
  catalog.SetRowBudgetForTesting(1);  // every new publish evicts the LRU tail
  std::weak_ptr<const GroupIndex> cached;
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const StratifiedSample> s,
                         catalog.GetOrBuild(table, by_pair, 0.05));
    ASSERT_OK(ExecuteApprox(*s, by_pair).status());
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> gidx,
                         s->GroupIndexFor(by_pair.group_by));
    cached = gidx;
  }
  EXPECT_FALSE(cached.expired());  // held by the published sample
  ASSERT_OK(catalog.GetOrBuild(table, by_parameter, 0.05).status());
  EXPECT_EQ(catalog.evictions(), 1u);
  EXPECT_TRUE(cached.expired());
}

}  // namespace
}  // namespace cvopt
