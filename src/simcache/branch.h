#ifndef HASHJOIN_SIMCACHE_BRANCH_H_
#define HASHJOIN_SIMCACHE_BRANCH_H_

#include <cstdint>
#include <vector>

namespace hashjoin {
namespace sim {

/// Table of 2-bit saturating counters, indexed by branch-site id. Stands
/// in for the paper's gshare-class predictor; only the mispredict *count*
/// feeds the model ("other stalls" in the breakdown figures).
class BranchPredictor {
 public:
  explicit BranchPredictor(uint32_t table_size = 4096)
      : counters_(table_size, 2) {}

  /// Records the outcome of branch site `site`; returns true if the
  /// predictor mispredicted it.
  bool Record(uint32_t site, bool taken) {
    uint8_t& c = counters_[site % counters_.size()];
    bool predicted_taken = c >= 2;
    if (taken && c < 3) ++c;
    if (!taken && c > 0) --c;
    return predicted_taken != taken;
  }

 private:
  std::vector<uint8_t> counters_;
};

}  // namespace sim
}  // namespace hashjoin

#endif  // HASHJOIN_SIMCACHE_BRANCH_H_
