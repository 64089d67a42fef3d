// StratifiedSample: a materialized random sample with per-row Horvitz–
// Thompson weights. This is the artifact the offline phase produces and the
// online phase queries; because rows carry scale-up weights, the same sample
// answers queries with runtime predicates and new groupings (Section 6.3).
#ifndef CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_
#define CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/stratification.h"
#include "src/table/table.h"

namespace cvopt {

/// A sample of base-table rows. `weights[i]` is the expansion factor of
/// sampled row i: the number of base rows it represents (n_c / s_c for
/// stratified uniform designs, 1 / (M * p_i) for measure-biased designs).
class StratifiedSample {
 public:
  StratifiedSample(const Table* base, std::vector<uint32_t> rows,
                   std::vector<double> weights, std::string method);

  const Table& base() const { return *base_; }
  const std::vector<uint32_t>& rows() const { return rows_; }
  const std::vector<double>& weights() const { return weights_; }
  const std::string& method() const { return method_; }

  size_t size() const { return rows_.size(); }

  /// Fraction of base rows materialized.
  double SampleRate() const {
    return base_->num_rows() == 0
               ? 0.0
               : static_cast<double>(rows_.size()) /
                     static_cast<double>(base_->num_rows());
  }

  /// Optional: the stratification the sample was drawn under (for reports).
  void set_stratification(std::shared_ptr<const Stratification> s) {
    strat_ = std::move(s);
  }
  const Stratification* stratification() const { return strat_.get(); }

  /// Optional: per-stratum exhaustive-service flags (aligned with the
  /// stratification's strata). Flag c is 1 when the draw took every row of
  /// stratum c — the allocation met or exceeded the population, including
  /// DrawStratified's take-all clamp — so answers over that stratum are
  /// exact, not estimates. Empty when the sample was not drawn through
  /// DrawStratified (e.g. measure-biased designs).
  void set_stratum_exhaustive(std::vector<uint8_t> flags) {
    stratum_exhaustive_ = std::move(flags);
  }
  const std::vector<uint8_t>& stratum_exhaustive() const {
    return stratum_exhaustive_;
  }
  /// Number of strata served exactly (take-all / clamped allocations).
  size_t num_exhaustive_strata() const {
    size_t n = 0;
    for (uint8_t f : stratum_exhaustive_) n += f;
    return n;
  }

  /// Optional: per-stratum degradation flags (aligned with the
  /// stratification's strata). Flag c is 1 when the draw was cut short by a
  /// governance deadline / cancellation before stratum c drew, under a
  /// QueryContext with allow_partial set: the stratum contributed no rows
  /// and answers over it are missing rather than estimated. Empty when the
  /// draw completed every stratum.
  void set_stratum_degraded(std::vector<uint8_t> flags) {
    stratum_degraded_ = std::move(flags);
  }
  const std::vector<uint8_t>& stratum_degraded() const {
    return stratum_degraded_;
  }
  /// Number of strata skipped by a partial (deadline-degraded) draw.
  size_t num_degraded_strata() const {
    size_t n = 0;
    for (uint8_t f : stratum_degraded_) n += f;
    return n;
  }

  /// Optional: how many distinct strata the sampler observed while drawing
  /// — a StreamGroupRouter's final occupancy for streaming builds, the
  /// stratification's group count for offline designs. Query-time group
  /// builds over the sample feed it to the hash-vs-sort aggregation
  /// planner as a cardinality prior (zero = unknown). Perf-only: the
  /// planner's choice never changes results.
  void set_observed_strata(size_t n) { observed_strata_ = n; }
  size_t observed_strata() const {
    if (observed_strata_ != 0) return observed_strata_;
    return strat_ != nullptr ? strat_->num_strata() : 0;
  }

  /// Query-time group index over the sampled rows for `group_by`
  /// (GroupIndex::BuildForRows over rows(), planned with observed_strata()
  /// as the cardinality prior). Built on first use per distinct GROUP BY
  /// list, then cached for every later query on this sample — the rows
  /// never change after the draw, so the index is a pure function of
  /// (sample, grouping). Safe to call concurrently: simultaneous first uses
  /// build once. A failed or governance-aborted build is not cached; the
  /// next call retries. The first build runs under the caller's ambient
  /// QueryContext (charged to its budget while building); the cached index
  /// is sample-lifetime state, freed with the last copy of the sample.
  Result<std::shared_ptr<const GroupIndex>> GroupIndexFor(
      const std::vector<std::string>& group_by) const;

  /// Copies the sampled rows into a standalone Table (for export or for
  /// engines that want a physical sample table).
  Table Materialize() const { return base_->TakeRows(rows_); }

 private:
  // Per-grouping group indexes, filled lazily by GroupIndexFor. Held
  // behind a shared_ptr so the sample stays cheaply copyable/movable
  // (copies share the cache — rows and base table are immutable). `mu`
  // guards the map only; each slot's own mutex serializes its build, so a
  // build never blocks hits on other groupings.
  struct GroupIndexSlot {
    std::mutex mu;
    std::shared_ptr<const GroupIndex> index;  // null until a build succeeds
  };
  struct GroupIndexCache {
    std::mutex mu;
    std::map<std::vector<std::string>, std::shared_ptr<GroupIndexSlot>> slots;
  };

  const Table* base_;
  std::vector<uint32_t> rows_;
  std::vector<double> weights_;
  std::string method_;
  std::shared_ptr<const Stratification> strat_;
  std::vector<uint8_t> stratum_exhaustive_;
  std::vector<uint8_t> stratum_degraded_;
  size_t observed_strata_ = 0;
  std::shared_ptr<GroupIndexCache> group_indexes_ =
      std::make_shared<GroupIndexCache>();
};

}  // namespace cvopt

#endif  // CVOPT_SAMPLE_STRATIFIED_SAMPLE_H_
