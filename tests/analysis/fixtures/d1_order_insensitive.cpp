// analyzer-fixture: path=src/core/fixture_d1_pass.cpp
// D1 must-pass corpus: iterating an unordered container is fine when the
// fold is commutative (sums, counters, max), when the loop re-keys into
// another associative container, or when collected keys are sorted before
// use (the collect-then-sort idiom settlement payouts rely on).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

class Tally {
 public:
  std::uint64_t sum_scores() const {
    std::uint64_t total = 0;
    for (const auto& [id, score] : scores_) {  // MUST-PASS(D1)
      (void)id;
      total += static_cast<std::uint64_t>(score);
    }
    return total;
  }

  int max_score() const {
    int best = 0;
    for (const auto& [id, score] : scores_) {
      (void)id;
      best = std::max(best, score);
    }
    return best;
  }

  std::vector<int> sorted_ids() const {
    std::vector<int> ids;
    ids.reserve(members_.size());
    for (int id : members_) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::map<int, int> rekeyed() const {
    std::map<int, int> out;
    for (const auto& [id, score] : scores_) {
      out[id] = score;
    }
    return out;
  }

  std::size_t count_above(int limit) const {
    std::size_t n = 0;
    for (const auto& [id, score] : scores_) {
      (void)id;
      if (score > limit) ++n;
    }
    return n;
  }

 private:
  std::unordered_set<int> members_;
  std::unordered_map<int, int> scores_;
};

}  // namespace fixture
