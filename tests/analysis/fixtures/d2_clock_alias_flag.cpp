// analyzer-fixture: path=src/transport/fixture_d2_alias.cpp
// D2 must-flag: a clock type named through an alias; every later read
// (`clk::now()`) hides the clock, so the alias itself is the finding.
// MUST-PASS(D2): the waived twin below, like TcpTransport's poll loop.
#include <chrono>

namespace fixture {

using clk = std::chrono::steady_clock;   // MUST-FLAG(D2)
using wall = std::chrono::steady_clock;  // lint-exempt(determinism): real-process deadlines run on host time

inline double since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count() + static_cast<double>(wall::now() > t0);
}

}  // namespace fixture
