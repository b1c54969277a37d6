// analyzer-fixture: path=src/attack/fixture_d2_rand.cpp
// D2 must-flag: libc entropy outside the seeded stream tree. Prose that
// mentions rand() or time(nullptr) in a comment must not trip the rule.
#include <cstdlib>

namespace fixture {

inline int pick_victim(int n) {
  std::srand(7);           // MUST-FLAG(D2)
  return std::rand() % n;  // MUST-FLAG(D2)
}

inline int pick_relay(int n) { return rand() % n; }  // MUST-FLAG(D2)

}  // namespace fixture
