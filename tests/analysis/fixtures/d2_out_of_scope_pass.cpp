// analyzer-fixture: path=tools/fixture_d2_out_of_scope.cpp
// D2 must-pass: tools/ is outside the checked trees; a host-side helper may
// read the clock. MUST-PASS(D2)
#include <chrono>

inline auto tool_started = std::chrono::steady_clock::now();
