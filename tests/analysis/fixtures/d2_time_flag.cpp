// analyzer-fixture: path=src/metrics/fixture_d2_time.cpp
// D2 must-flag: raw OS clock reads in model code.
#include <ctime>

namespace fixture {

inline long stamp() { return static_cast<long>(time(nullptr)); }           // MUST-FLAG(D2)
inline long stamp_std() { return static_cast<long>(std::time(nullptr)); }  // MUST-FLAG(D2)
inline long ticks() { return static_cast<long>(std::clock()); }            // MUST-FLAG(D2)

}  // namespace fixture
