#include "core/window.h"

#include <gtest/gtest.h>

namespace tycos {
namespace {

TEST(WindowTest, SizeAndMappedRange) {
  Window w(10, 19, 5);
  EXPECT_EQ(w.size(), 10);
  EXPECT_EQ(w.y_start(), 15);
  EXPECT_EQ(w.y_end(), 24);
}

TEST(WindowTest, NegativeDelayMapsBackwards) {
  Window w(10, 19, -5);
  EXPECT_EQ(w.y_start(), 5);
  EXPECT_EQ(w.y_end(), 14);
}

TEST(WindowTest, SameSpanIgnoresMi) {
  Window a(1, 5, 2, 0.9);
  Window b(1, 5, 2, 0.1);
  EXPECT_TRUE(a.SameSpan(b));
  EXPECT_FALSE(a.SameSpan(Window(1, 5, 3)));
}

TEST(WindowTest, ToStringMentionsFields) {
  const std::string s = Window(3, 9, -2, 0.5).ToString();
  EXPECT_NE(s.find("3"), std::string::npos);
  EXPECT_NE(s.find("9"), std::string::npos);
  EXPECT_NE(s.find("-2"), std::string::npos);
}

TEST(IsFeasibleTest, RespectsSizeBounds) {
  // n=100, s_min=5, s_max=20, td_max=10.
  EXPECT_TRUE(IsFeasible(Window(0, 4, 0), 100, 5, 20, 10));
  EXPECT_FALSE(IsFeasible(Window(0, 3, 0), 100, 5, 20, 10));  // too small
  EXPECT_TRUE(IsFeasible(Window(0, 19, 0), 100, 5, 20, 10));
  EXPECT_FALSE(IsFeasible(Window(0, 20, 0), 100, 5, 20, 10));  // too large
}

TEST(IsFeasibleTest, RespectsDelayBound) {
  EXPECT_TRUE(IsFeasible(Window(20, 30, 10), 100, 5, 20, 10));
  EXPECT_TRUE(IsFeasible(Window(20, 30, -10), 100, 5, 20, 10));
  EXPECT_FALSE(IsFeasible(Window(20, 30, 11), 100, 5, 20, 10));
  EXPECT_FALSE(IsFeasible(Window(20, 30, -11), 100, 5, 20, 10));
}

TEST(IsFeasibleTest, RespectsSeriesBoundsOnBothSides) {
  // Y window must stay in range too.
  EXPECT_FALSE(IsFeasible(Window(95, 99, 5), 100, 3, 20, 10));   // y_end 104
  EXPECT_FALSE(IsFeasible(Window(0, 9, -5), 100, 3, 20, 10));    // y_start -5
  EXPECT_TRUE(IsFeasible(Window(90, 94, 5), 100, 3, 20, 10));
  EXPECT_FALSE(IsFeasible(Window(-1, 5, 0), 100, 3, 20, 10));
  EXPECT_FALSE(IsFeasible(Window(96, 100, 0), 100, 3, 20, 10));
}

TEST(IsFeasibleTest, StartAfterEndIsInfeasible) {
  EXPECT_FALSE(IsFeasible(Window(10, 9, 0), 100, 1, 20, 10));
}

TEST(ContainsTest, RequiresSameDelay) {
  EXPECT_TRUE(Contains(Window(0, 10, 2), Window(2, 8, 2)));
  EXPECT_TRUE(Contains(Window(0, 10, 2), Window(0, 10, 2)));  // equal spans
  EXPECT_FALSE(Contains(Window(0, 10, 2), Window(2, 8, 3)));
  EXPECT_FALSE(Contains(Window(2, 8, 2), Window(0, 10, 2)));
}

TEST(OverlapsTest, IntervalIntersection) {
  EXPECT_TRUE(Overlaps(Window(0, 10, 0), Window(10, 20, 5)));
  EXPECT_TRUE(Overlaps(Window(5, 8, 0), Window(0, 20, 0)));
  EXPECT_FALSE(Overlaps(Window(0, 9, 0), Window(10, 20, 0)));
}

TEST(ConsecutiveTest, Definition62) {
  // b starts right after a, same delay.
  EXPECT_TRUE(AreConsecutive(Window(0, 9, 3), Window(10, 19, 3)));
  EXPECT_FALSE(AreConsecutive(Window(0, 9, 3), Window(11, 19, 3)));  // gap
  EXPECT_FALSE(AreConsecutive(Window(0, 9, 3), Window(10, 19, 4)));  // delay
  EXPECT_FALSE(AreConsecutive(Window(10, 19, 3), Window(0, 9, 3)));  // order
}

TEST(ConcatenateTest, JoinsSpans) {
  const Window c = Concatenate(Window(0, 9, 3, 0.8), Window(10, 19, 3, 0.1));
  EXPECT_EQ(c.start, 0);
  EXPECT_EQ(c.end, 19);
  EXPECT_EQ(c.delay, 3);
  EXPECT_DOUBLE_EQ(c.mi, 0.0);  // MI is re-estimated by the caller
}

TEST(ExtractSamplesTest, ZeroDelay) {
  SeriesPair pair(TimeSeries({0, 1, 2, 3, 4, 5}),
                  TimeSeries({10, 11, 12, 13, 14, 15}));
  std::vector<double> xs, ys;
  ExtractSamples(pair, Window(1, 3, 0), &xs, &ys);
  EXPECT_EQ(xs, (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(ys, (std::vector<double>{11, 12, 13}));
}

TEST(ExtractSamplesTest, PositiveDelayShiftsY) {
  SeriesPair pair(TimeSeries({0, 1, 2, 3, 4, 5}),
                  TimeSeries({10, 11, 12, 13, 14, 15}));
  std::vector<double> xs, ys;
  ExtractSamples(pair, Window(0, 2, 2), &xs, &ys);
  EXPECT_EQ(xs, (std::vector<double>{0, 1, 2}));
  EXPECT_EQ(ys, (std::vector<double>{12, 13, 14}));
}

TEST(ExtractSamplesTest, NegativeDelayShiftsYBackwards) {
  SeriesPair pair(TimeSeries({0, 1, 2, 3, 4, 5}),
                  TimeSeries({10, 11, 12, 13, 14, 15}));
  std::vector<double> xs, ys;
  ExtractSamples(pair, Window(3, 5, -3), &xs, &ys);
  EXPECT_EQ(xs, (std::vector<double>{3, 4, 5}));
  EXPECT_EQ(ys, (std::vector<double>{10, 11, 12}));
}

TEST(WindowSpansTest, ViewsTheSeriesInPlace) {
  SeriesPair pair(TimeSeries({0, 1, 2, 3, 4, 5}),
                  TimeSeries({10, 11, 12, 13, 14, 15}));
  const WindowSamples s = WindowSpans(pair, Window(3, 5, -3));
  EXPECT_EQ(s.x.data(), pair.x().values().data() + 3);
  EXPECT_EQ(s.y.data(), pair.y().values().data());
  EXPECT_EQ(s.x.size(), 3u);
  EXPECT_EQ(s.y.size(), 3u);
  std::vector<double> xs, ys;
  ExtractSamples(pair, Window(3, 5, -3), &xs, &ys);
  EXPECT_EQ(xs, std::vector<double>(s.x.begin(), s.x.end()));
  EXPECT_EQ(ys, std::vector<double>(s.y.begin(), s.y.end()));
}

}  // namespace
}  // namespace tycos
