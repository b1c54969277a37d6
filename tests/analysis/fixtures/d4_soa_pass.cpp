// analyzer-fixture: path=src/harness/fixture_d4_pass.cpp
// D4 must-pass: column writes are legal when the function derives shard
// ownership via shard_of(...) before writing, when the write runs inside a
// window-barrier callback, or when the site only reads. A shard(x).schedule_*
// passes only with a cross-shard waiver, even when x derives from shard_of.
#include <cstdint>
#include <functional>
#include <vector>

namespace fixture {

struct NodeStateSoA {
  std::vector<std::uint8_t> online;
  std::vector<std::uint64_t> leave_epoch;
};

struct Partition {
  std::uint32_t shard_of(std::uint32_t id) const { return id % 4; }
};

struct LocalSim {
  void schedule_in(double, void (*)()) {}
};

class ShardedModel {
 public:
  void owned_leave(std::uint32_t id) {
    const std::uint32_t s = partition_.shard_of(id);
    (void)s;
    state_.online[id] = 0;  // MUST-PASS(D4)
    ++state_.leave_epoch[id];
  }

  void merge_at_barrier() {
    add_barrier_hook([this] { state_.online[0] = 1; });
  }

  void reschedule_owned(std::uint32_t id) {
    const std::uint32_t s = partition_.shard_of(id);
    // lint-exempt(cross-shard): s is the owner of id, and this model runs on it
    shard(s).schedule_in(1.0, nullptr);  // MUST-PASS(D4)
  }

  [[nodiscard]] bool is_up(std::uint32_t id) const { return state_.online[id] != 0; }

 private:
  void add_barrier_hook(std::function<void()> hook) { hooks_.push_back(std::move(hook)); }
  LocalSim& shard(std::uint32_t);
  Partition partition_;
  NodeStateSoA state_;
  std::vector<std::function<void()>> hooks_;
};

}  // namespace fixture
