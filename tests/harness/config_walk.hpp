// One-leaf-at-a-time walk over the ScenarioConfig field table
// (harness::for_each_config_field) for the fingerprint and refusal tests.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "harness/scenario.hpp"

namespace p2panon::harness_test {

struct ConfigLeaf {
  std::string name;
  harness::Runners runners;
};

/// Gives leaf `index` (table order) of `cfg` a value it does not hold and
/// returns the leaf, or nullopt past the last one. Each value stays inside
/// its field's range in validate(): a flag flips, an enumerator swaps
/// between the first two, an integer grows by one and a real halves (0
/// becomes 0.5). Only the leaf changes, so
/// halving one quality weight takes w_s + w_a off 1, and halving
/// overlay.churn.session_min or session_max puts the default session median
/// exactly on its reachable ceiling sqrt(session_min * session_max): a
/// caller that validates moves the other weight or the median itself.
inline std::optional<ConfigLeaf> change_leaf(harness::ScenarioConfig& cfg, std::size_t index) {
  std::optional<ConfigLeaf> changed;
  std::size_t i = 0;
  harness::for_each_config_field(cfg, [&](std::string_view name, auto& leaf, auto runners) {
    if (i++ != index) return;
    changed = ConfigLeaf{std::string(name), runners};
    using T = std::remove_cvref_t<decltype(leaf)>;
    if constexpr (std::is_same_v<T, bool>) {
      leaf = !leaf;
    } else if constexpr (std::is_enum_v<T>) {
      leaf = static_cast<T>(leaf == T{} ? 1 : 0);
    } else if constexpr (std::is_integral_v<T>) {
      ++leaf;
    } else {
      static_assert(std::is_same_v<T, double>);
      leaf = leaf == 0.0 ? 0.5 : leaf / 2.0;
    }
  });
  return changed;
}

}  // namespace p2panon::harness_test
