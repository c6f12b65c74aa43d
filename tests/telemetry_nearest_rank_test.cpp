// The store's exact percentile kernel (telemetry/nearest_rank.hpp) against a
// full std::sort at the same rank: every size up to 600, sizes around the
// direct-select threshold, and 100K values, over uniform, all-equal,
// few-distinct, mostly-zero, sorted, reversed, organ-pipe and
// infinity-laden inputs.
// Answers must match bit for bit. The one exception is a -0.0 / +0.0 tie at
// the rank: the two compare equal, so either sign may come back (as from
// nth_element itself), and that test asserts == instead.
#include "telemetry/nearest_rank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace eona::telemetry {
namespace {

constexpr double kQuantiles[] = {0.0, 0.5, 0.9, 1.0};
constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double sorted_rank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[nearest_rank_index(values.size(), q)];
}

/// Checks every quantile of `values` with a shared scratch, as the store
/// uses it, on a fresh copy each time.
void expect_exact(const std::vector<double>& values, RankScratch& scratch,
                  const std::string& what) {
  for (const double q : kQuantiles) {
    std::vector<double> work = values;
    const double got = nearest_rank(work, q, scratch);
    const double want = sorted_rank(values, q);
    ASSERT_TRUE(same_bits(got, want))
        << what << " n=" << values.size() << " q=" << q << ": " << got
        << " vs " << want;
  }
}

/// The input shapes every size is checked on.
std::vector<std::pair<std::string, std::vector<double>>> shapes(
    std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uniform(-1e3, 1e3);
  std::uniform_int_distribution<int> few(0, 4);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> random(n), counts(n), zeros(n), sorted(n), organ(n),
      inf(n);
  for (double& v : random) v = uniform(rng);
  for (double& v : counts) v = few(rng);  // integer counts, heavy ties
  // A buffering ratio: ~90% zeros, so p50 sits in the zero run and p90
  // near its end.
  for (double& v : zeros) v = unit(rng) < 0.9 ? 0.0 : unit(rng);
  for (std::size_t i = 0; i < n; ++i) {
    sorted[i] = static_cast<double>(i) * 0.5;
    organ[i] = static_cast<double>(std::min(i, n - 1 - i));
    inf[i] = i % 7 == 0 ? kInf : i % 7 == 1 ? -kInf : uniform(rng);
  }
  std::vector<double> reversed(sorted.rbegin(), sorted.rend());
  return {{"uniform", random},
          {"all-equal", std::vector<double>(n, 3.25)},
          {"few-distinct", counts},
          {"mostly-zero", zeros},
          {"sorted", sorted},
          {"reversed", reversed},
          {"organ-pipe", organ},
          {"with-inf", inf}};
}

TEST(StoreNearestRank, MatchesFullSortForEverySizeUpTo600) {
  std::mt19937_64 rng(1);
  RankScratch scratch;
  for (std::size_t n = 1; n <= 600; ++n)
    for (const auto& [what, values] : shapes(n, rng))
      expect_exact(values, scratch, what);
}

TEST(StoreNearestRank, MatchesFullSortAroundTheThresholdAndAt100K) {
  std::mt19937_64 rng(2);
  RankScratch scratch;
  const std::size_t sizes[] = {kDirectSelectMax - 1, kDirectSelectMax,
                               kDirectSelectMax + 1, kDirectSelectMax + 2,
                               1000, 4096, 4097, 100'000};
  for (const std::size_t n : sizes)
    for (const auto& [what, values] : shapes(n, rng))
      expect_exact(values, scratch, what);
}

TEST(StoreNearestRank, ScratchReusedAcrossShrinkingAndGrowingSizes) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  RankScratch scratch;
  for (const std::size_t n : {50'000, 700, 20'000, 513, 90'000, 2'000}) {
    std::vector<double> values(n);
    for (double& v : values) v = uniform(rng);
    expect_exact(values, scratch, "reuse");
  }
}

// Every strided-sample position holds a huge value and every other position
// a small one, so the bracket is drawn from the wrong end of the data and
// misses the rank: the kernel must fall back and still be exact.
TEST(StoreNearestRank, FallbackIsExactWhenTheSampleMissesTheRank) {
  const std::size_t n = 10'000;
  const double cube_root = std::cbrt(static_cast<double>(n));
  const auto s = std::min(kRankSampleMax,
                          static_cast<std::size_t>(cube_root * cube_root));
  const std::size_t stride = n / s;
  ASSERT_GT(stride, 1u);
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i)
    values[i] = i % stride == 0 ? 1e9 + static_cast<double>(i) : uniform(rng);
  RankScratch scratch;
  expect_exact(values, scratch, "sample-misses");
}

// With a NaN the order is not a strict weak order and a full sort is no
// reference. The kernel then promises the nth_element answer on the same
// input, bit for bit, whether the NaN sits at a sampled position or not.
TEST(StoreNearestRank, NanInputGivesTheNthElementAnswer) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (const std::size_t nan_at : {std::size_t{0}, std::size_t{1},
                                   std::size_t{2'500}, std::size_t{4'999}}) {
    std::vector<double> values(5'000);
    for (double& v : values) v = uniform(rng);
    values[nan_at] = std::numeric_limits<double>::quiet_NaN();
    RankScratch scratch;
    for (const double q : kQuantiles) {
      std::vector<double> work = values;
      std::vector<double> ref = values;
      const std::size_t k = nearest_rank_index(ref.size(), q);
      std::nth_element(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(k),
                       ref.end());
      EXPECT_TRUE(same_bits(nearest_rank(work, q, scratch), ref[k]))
          << "NaN at " << nan_at << " q=" << q;
    }
  }
}

// -0.0 and +0.0 tie at the rank: either sign is a correct answer.
TEST(StoreNearestRank, SignedZeroTieComparesEqual) {
  std::vector<double> values;
  for (int i = 0; i < 3'000; ++i)
    values.push_back(i % 3 == 0 ? -1.0 : i % 3 == 1 ? -0.0 : 0.0);
  RankScratch scratch;
  for (const double q : {0.5, 0.9}) {
    std::vector<double> work = values;
    EXPECT_EQ(nearest_rank(work, q, scratch), 0.0) << "q=" << q;
  }
}

TEST(StoreNearestRank, OneOffScratchOverloadAgrees) {
  std::vector<double> values(20'000);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<double>((i * 7919) % 20'011);
  std::vector<double> work = values;
  EXPECT_TRUE(same_bits(nearest_rank(work, 0.9), sorted_rank(values, 0.9)));
}

TEST(StoreNearestRank, RejectsAnEmptySample) {
  std::vector<double> empty;
  EXPECT_THROW(static_cast<void>(nearest_rank(empty, 0.5)), ContractViolation);
}

}  // namespace
}  // namespace eona::telemetry
