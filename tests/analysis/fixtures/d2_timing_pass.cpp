// analyzer-fixture: path=bench/fixture_d2_timing.cpp
// D2 must-pass: clocks in bench/ time the host machine (events/sec, wall
// budget), never the simulation — that is the sanctioned use.
#include <chrono>
#include <unordered_map>

namespace fixture {

struct Peer {
  int id = 0;
};

using clk = std::chrono::steady_clock;  // MUST-PASS(D2)

inline double bench_elapsed_ms() {
  const auto start = std::chrono::steady_clock::now();
  const auto stop = clk::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

// Pointer *values* are the hazard, not pointers per se: an id-keyed map with
// a pointer mapped_type is deterministic.
struct IdKeyed {
  std::unordered_map<int, Peer*> by_id;
};

}  // namespace fixture
