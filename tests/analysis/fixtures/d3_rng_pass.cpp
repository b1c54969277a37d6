// analyzer-fixture: path=src/core/fixture_d3_pass.cpp
// D3 must-pass: a <random> adaptor is fine when the enclosing function takes
// a sim::rng::Stream& — every draw then traces to the seeded stream tree.
#include <random>

namespace sim::rng {
struct Stream {
  using result_type = unsigned long long;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return 4; }
};
}  // namespace sim::rng

namespace fixture {

inline double disciplined_draw(sim::rng::Stream& stream) {
  std::normal_distribution<double> dist(0.0, 1.0);  // MUST-PASS(D3)
  return dist(stream);
}

}  // namespace fixture
