// Bitwise equality of harness results for gtest suites.
//
// The determinism and kill-and-resume contracts are *bitwise*: EXPECT_DOUBLE_EQ
// tolerance would mask exactly the low-bit divergence a leaked cache or a
// lossy checkpoint produces first, so accumulators compare their full Raw
// state and doubles compare by bit pattern (-0.0 differs from 0.0).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "harness/replicate.hpp"

namespace p2panon::harness_test {

using harness::for_each_result_field;
using harness::ReplicatedResult;

inline void expect_bits_eq(const metrics::Accumulator& a, const metrics::Accumulator& b,
                           const char* what = "") {
  const auto ra = a.raw();
  const auto rb = b.raw();
  EXPECT_EQ(ra.n, rb.n) << what;
  EXPECT_EQ(ra.mean_bits, rb.mean_bits) << what;
  EXPECT_EQ(ra.m2_bits, rb.m2_bits) << what;
  EXPECT_EQ(ra.min_bits, rb.min_bits) << what;
  EXPECT_EQ(ra.max_bits, rb.max_bits) << what;
}

template <class T>
void expect_bits_eq(const T& a, const T& b, const char* what) {
  EXPECT_EQ(a, b) << what;
}

inline void expect_bits_eq(const std::vector<double>& a, const std::vector<double>& b,
                           const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

/// Every ReplicatedResult field, bit for bit: the table rows, the pooled
/// samples and the new-edge-fraction curve.
inline void expect_bits_eq(const ReplicatedResult& a, const ReplicatedResult& b) {
  EXPECT_EQ(a.replicates, b.replicates);
  for_each_result_field([&](const char* key, auto member, auto, auto) {
    expect_bits_eq(a.*member, b.*member, key);
  });
  expect_bits_eq(a.pooled_good_payoffs, b.pooled_good_payoffs, "pooled_good_payoffs");
  expect_bits_eq(a.pooled_member_payoffs, b.pooled_member_payoffs, "pooled_member_payoffs");
  ASSERT_EQ(a.new_edge_fraction_by_conn.size(), b.new_edge_fraction_by_conn.size());
  for (std::size_t j = 0; j < a.new_edge_fraction_by_conn.size(); ++j) {
    expect_bits_eq(a.new_edge_fraction_by_conn[j], b.new_edge_fraction_by_conn[j],
                   "new_edge_fraction_by_conn");
  }
}

}  // namespace p2panon::harness_test
