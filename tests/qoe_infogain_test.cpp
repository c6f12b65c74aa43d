// Tests for information-gain feature ranking (§4 interface-design support).
#include "qoe/infogain.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "sim/rng.hpp"

namespace eona::qoe {
namespace {

TEST(Entropy, KnownValues) {
  EXPECT_DOUBLE_EQ(entropy_bits({}), 0.0);
  EXPECT_DOUBLE_EQ(entropy_bits({10}), 0.0);            // deterministic
  EXPECT_DOUBLE_EQ(entropy_bits({5, 5}), 1.0);          // fair coin
  EXPECT_DOUBLE_EQ(entropy_bits({4, 4, 4, 4}), 2.0);    // fair 4-way
  EXPECT_NEAR(entropy_bits({9, 1}),
              -(0.9 * std::log2(0.9) + 0.1 * std::log2(0.1)), 1e-12);
}

TEST(InformationGain, PerfectPredictorRecoversLabelEntropy) {
  // Label is a deterministic function of the feature.
  std::vector<double> feature, label;
  for (int i = 0; i < 400; ++i) {
    double x = (i % 2 == 0) ? 0.0 : 1.0;
    feature.push_back(x);
    label.push_back(x * 10.0);
  }
  double gain = information_gain(feature, label, 4);
  EXPECT_NEAR(gain, 1.0, 0.05);  // label entropy is 1 bit
}

TEST(InformationGain, IndependentFeatureGivesNearZero) {
  sim::Rng rng(3);
  std::vector<double> feature, label;
  for (int i = 0; i < 5000; ++i) {
    feature.push_back(rng.uniform(0, 1));
    label.push_back(rng.uniform(0, 1));
  }
  EXPECT_LT(information_gain(feature, label, 4), 0.03);
}

TEST(InformationGain, ConstantColumnsGiveZero) {
  std::vector<double> constant(100, 5.0), varying;
  for (int i = 0; i < 100; ++i) varying.push_back(i);
  EXPECT_DOUBLE_EQ(information_gain(constant, varying), 0.0);
  EXPECT_DOUBLE_EQ(information_gain(varying, constant), 0.0);
}

TEST(InformationGain, InvalidInputsAreContractViolations) {
  std::vector<double> a{1, 2}, b{1};
  EXPECT_THROW(static_cast<void>(information_gain(a, b)), ContractViolation);
  EXPECT_THROW(static_cast<void>(information_gain({}, {})), ContractViolation);
  EXPECT_THROW(static_cast<void>(information_gain(a, a, 1)), ContractViolation);
}

TEST(RankFeatures, OrdersByGainDescending) {
  sim::Rng rng(5);
  std::vector<double> label, strong, weak, noise;
  for (int i = 0; i < 3000; ++i) {
    double y = rng.uniform(0, 1);
    label.push_back(y);
    strong.push_back(y + rng.normal(0, 0.05));   // tightly coupled
    weak.push_back(y + rng.normal(0, 0.8));      // loosely coupled
    noise.push_back(rng.uniform(0, 1));          // independent
  }
  auto ranked = rank_features(
      {{"noise", noise}, {"strong", strong}, {"weak", weak}}, label);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, "strong");
  EXPECT_EQ(ranked[1].first, "weak");
  EXPECT_EQ(ranked[2].first, "noise");
  EXPECT_GT(ranked[0].second, ranked[1].second);
  EXPECT_GT(ranked[1].second, ranked[2].second);
}

}  // namespace
}  // namespace eona::qoe
