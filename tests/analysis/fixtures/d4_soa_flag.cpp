// analyzer-fixture: path=src/harness/fixture_d4_flag.cpp
// D4 must-flag corpus: writes to NodeStateSoA columns from a method that
// neither derives shard ownership (shard_of) nor runs in a window-barrier
// callback, plus shard(x).schedule_* calls without a cross-shard waiver —
// deriving x via shard_of does not prove the caller runs on shard x.
#include <cstdint>
#include <vector>

namespace fixture {

struct Tracker {
  void on_join(double t) { last = t; }
  void on_leave(double t) { last = t; }
  double last = 0.0;
};

struct NodeStateSoA {
  std::vector<std::uint8_t> online;
  std::vector<std::uint64_t> leave_epoch;
  std::vector<Tracker> tracker;
};

struct LocalSim {
  void schedule_in(double, void (*)()) {}
};

class RogueStrategy {
 public:
  void knock_offline(std::uint32_t id) {
    state_.online[id] = 0;             // MUST-FLAG(D4)
    ++state_.leave_epoch[id];          // MUST-FLAG(D4)
    state_.tracker[id].on_leave(0.0);  // MUST-FLAG(D4)
  }

  void reschedule(std::uint32_t target) {
    shard(target).schedule_in(1.0, nullptr);  // MUST-FLAG(D4)
  }

  void reschedule_derived(std::uint32_t id) {
    const std::uint32_t s = shard_of(id);
    shard(s).schedule_in(1.0, nullptr);  // MUST-FLAG(D4)
  }

 private:
  LocalSim& shard(std::uint32_t);
  std::uint32_t shard_of(std::uint32_t id) const { return id % 4; }
  NodeStateSoA state_;
};

}  // namespace fixture
