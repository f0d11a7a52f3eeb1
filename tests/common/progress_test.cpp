#include "common/progress.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "common/telemetry.h"

namespace rlccd {
namespace {

TEST(ProgressEvent, MetricLookupAndFallback) {
  const std::array<ProgressMetric, 3> metrics = {{
      {"tns", -113.25},
      {"nve", 41.0},
      {"tns", -999.0},  // duplicate: first match wins
  }};
  ProgressEvent e;
  e.metrics = metrics;

  EXPECT_DOUBLE_EQ(e.metric("tns"), -113.25);
  EXPECT_DOUBLE_EQ(e.metric("nve"), 41.0);
  EXPECT_DOUBLE_EQ(e.metric("missing"), 0.0) << "default fallback is 0";
  EXPECT_DOUBLE_EQ(e.metric("missing", -7.5), -7.5);
}

TEST(ProgressEvent, MetricFallbackOnEmptyPayload) {
  ProgressEvent e;
  EXPECT_DOUBLE_EQ(e.metric("anything", 3.0), 3.0);
}

TEST(ProgressFormat, FullEventLine) {
  const std::array<ProgressMetric, 2> metrics = {{
      {"tns", -113.2196},
      {"nve", 41.0},
  }};
  ProgressEvent e;
  e.phase = "flow";
  e.step = "useful_skew";
  e.index = 2;
  e.seconds = 1.2041;
  e.metrics = metrics;

  EXPECT_EQ(format_progress_line(e),
            "[flow] useful_skew      #2 1.204s tns=-113.220 nve=41.000");
}

TEST(ProgressFormat, OmitsIndexWhenUnset) {
  ProgressEvent e;
  e.phase = "train";
  e.step = "iteration_dropped";
  e.seconds = 0.5;
  EXPECT_EQ(format_progress_line(e), "[train] iteration_dropped 0.500s");
}

TEST(ProgressFormat, StepColumnPadsShortNames) {
  ProgressEvent e;
  e.phase = "flow";
  e.step = "legalize";
  e.index = 0;
  e.seconds = 0.0;
  // %-16s pads "legalize" to sixteen columns before the index.
  EXPECT_EQ(format_progress_line(e), "[flow] legalize         #0 0.000s");
}

TEST(StderrProgressTest, WritesPrefixedLineToStream) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  StderrProgress observer(tmp);

  const std::array<ProgressMetric, 1> metrics = {{{"wns", -0.5}}};
  ProgressEvent e;
  e.phase = "flow";
  e.step = "final_sta";
  e.index = -1;
  e.seconds = 0.25;
  e.metrics = metrics;
  observer.on_event(e);

  std::rewind(tmp);
  char buf[256] = {};
  ASSERT_NE(std::fgets(buf, sizeof(buf), tmp), nullptr);
  std::fclose(tmp);
  EXPECT_STREQ(buf, "[flow] final_sta        0.250s wns=-0.500\n");
}

}  // namespace
}  // namespace rlccd
