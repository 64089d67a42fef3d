#include "src/sample/stratified_sample.h"

#include "src/exec/agg_planner.h"

namespace cvopt {

StratifiedSample::StratifiedSample(const Table* base, std::vector<uint32_t> rows,
                                   std::vector<double> weights, std::string method)
    : base_(base),
      rows_(std::move(rows)),
      weights_(std::move(weights)),
      method_(std::move(method)) {
  CVOPT_CHECK(rows_.size() == weights_.size(), "rows/weights size mismatch");
}

Result<std::shared_ptr<const GroupIndex>> StratifiedSample::GroupIndexFor(
    const std::vector<std::string>& group_by) const {
  std::shared_ptr<GroupIndexSlot> slot;
  {
    std::lock_guard<std::mutex> lock(group_indexes_->mu);
    std::shared_ptr<GroupIndexSlot>& s = group_indexes_->slots[group_by];
    if (s == nullptr) s = std::make_shared<GroupIndexSlot>();
    slot = s;
  }
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->index == nullptr) {
    // The sampler's observed stratum count (a streaming router's final
    // occupancy, or the stratification's group count) rides along as the
    // aggregation planner's cardinality prior — groupings coarser than the
    // stratification overestimate, which only ever steers the hash-vs-sort
    // choice, never the ids.
    ScopedAggOccupancyHint occupancy(observed_strata());
    CVOPT_ASSIGN_OR_RETURN(GroupIndex built,
                           GroupIndex::BuildForRows(*base_, group_by, rows_));
    slot->index = std::make_shared<const GroupIndex>(std::move(built));
  }
  return slot->index;
}

}  // namespace cvopt
