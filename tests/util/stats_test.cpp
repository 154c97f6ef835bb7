#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace ssdk {
namespace {

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  for (const double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 25.0);
}

TEST(SampleSet, SingleSamplePercentiles) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.0), 7.0);
}

TEST(SampleSet, MeanAndExtremes) {
  SampleSet s;
  for (const double x : {3.0, 1.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleSet, AddAfterPercentileQuery) {
  SampleSet s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.5);
  s.add(100.0);  // must re-sort internally
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(SampleSet, MergeCombines) {
  SampleSet a, b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(SampleSet, SummaryStringMentionsCount) {
  SampleSet s;
  s.add(5.0);
  EXPECT_NE(summarize(s).find("n=1"), std::string::npos);
  SampleSet empty;
  EXPECT_NE(summarize(empty).find("n=0"), std::string::npos);
}

}  // namespace
}  // namespace ssdk
