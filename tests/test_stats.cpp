#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace evm::util {
namespace {

TEST(Samples, EmptyIsSafe) {
  Samples s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
}

TEST(Samples, BasicMoments) {
  Samples s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
}

TEST(Samples, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.9), 90.0, 1.0);
}

TEST(Samples, FloorIndexRankPinsTodaysRule) {
  // The fig6 failover latencies of five seeds: index floor(p·4) reads
  // element 3 of the sorted sample for both p90 and p99, so the one slow
  // seed shows up only in max.
  Samples s;
  for (double v : {2.04, 2.04, 2.04, 4.04, 2.04}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0.9), 2.04);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 2.04);
  const SummaryStats stats = s.summarize();
  EXPECT_DOUBLE_EQ(stats.p90, 2.04);
  EXPECT_DOUBLE_EQ(stats.p99, 2.04);
  EXPECT_DOUBLE_EQ(stats.max, 4.04);
}

TEST(Samples, PercentileClampsOutOfRangeP) {
  Samples s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.5), 3.0);
}

TEST(Samples, SingleSampleCollapsesEverySummaryField) {
  Samples s;
  s.add(7.25);
  const SummaryStats stats = s.summarize();
  EXPECT_EQ(stats.count, 1u);
  for (double v : {stats.min, stats.max, stats.mean, stats.p50, stats.p90, stats.p99}) {
    EXPECT_DOUBLE_EQ(v, 7.25);
  }
  EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
}

TEST(Samples, PercentileIgnoresInsertionOrder) {
  // Samples arrive in seed order from a campaign but completion order from
  // a merge; the rank is taken over the sorted sample either way.
  Samples ascending, scrambled;
  for (int i = 0; i < 20; ++i) {
    ascending.add(static_cast<double>(i));
    scrambled.add(static_cast<double>((i * 7) % 20));
  }
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(scrambled.percentile(p), ascending.percentile(p)) << p;
  }
  EXPECT_DOUBLE_EQ(scrambled.percentile(0.5), 9.0);  // index floor(0.5 * 19)
}

TEST(Samples, SummarizeMatchesIndividualAccessors) {
  Rng rng(17);
  Samples s;
  for (int i = 0; i < 500; ++i) s.add(rng.normal(5.0, 2.0));
  const SummaryStats stats = s.summarize();
  EXPECT_EQ(stats.count, s.count());
  EXPECT_DOUBLE_EQ(stats.min, s.min());
  EXPECT_DOUBLE_EQ(stats.max, s.max());
  EXPECT_DOUBLE_EQ(stats.mean, s.mean());
  EXPECT_DOUBLE_EQ(stats.stddev, s.stddev());
  EXPECT_DOUBLE_EQ(stats.p50, s.percentile(0.5));
  EXPECT_DOUBLE_EQ(stats.p90, s.percentile(0.9));
  EXPECT_DOUBLE_EQ(stats.p99, s.percentile(0.99));
}

TEST(Samples, SummarizeEmptyIsZero) {
  const SummaryStats stats = Samples().summarize();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.p50, 0.0);
  EXPECT_EQ(stats.max, 0.0);
}

TEST(Samples, SummaryContainsMarkers) {
  Samples s;
  s.add(1.0);
  const std::string text = s.summary(" ms");
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
}

TEST(Samples, PercentilesAreMonotone) {
  Rng rng(3);
  Samples s;
  for (int i = 0; i < 1000; ++i) s.add(rng.normal(0.0, 10.0));
  double prev = s.percentile(0.0);
  for (double p = 0.1; p <= 1.0; p += 0.1) {
    const double cur = s.percentile(p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace evm::util
