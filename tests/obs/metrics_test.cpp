// The metrics registry: name+label lookup returns stable references, kind
// mismatches are rejected, and both exposition formats (Prometheus text and
// JSON) carry the exact counter and gauge values.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace perseas::obs {
namespace {

TEST(MetricsRegistry, LookupReturnsSameMetricForSameNameAndLabels) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests_total", "Requests", "kind=\"read\"");
  a.add(3);
  Counter& b = reg.counter("requests_total", "ignored on re-registration", "kind=\"read\"");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  // A different label set is a different metric.
  Counter& c = reg.counter("requests_total", "", "kind=\"write\"");
  EXPECT_NE(&a, &c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x", "");
  EXPECT_THROW((void)reg.gauge("x"), std::logic_error);
  reg.gauge("y").set(1.5);
  EXPECT_THROW((void)reg.counter("y"), std::logic_error);
}

TEST(MetricsRegistry, ReferencesStayValidAcrossGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first_total");
  first.add(7);
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler_total", "", "i=\"" + std::to_string(i) + "\"").add(1);
  }
  EXPECT_EQ(first.value(), 7u);
  EXPECT_EQ(reg.counter("first_total").value(), 7u);
}

TEST(MetricsRegistry, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("txns_total", "Transactions", "outcome=\"committed\"").add(42);
  reg.counter("txns_total", "Transactions", "outcome=\"aborted\"").add(1);
  reg.gauge("undo_bytes", "Undo log size").set(4096);

  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP txns_total Transactions"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE txns_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("txns_total{outcome=\"committed\"} 42"), std::string::npos) << text;
  EXPECT_NE(text.find("txns_total{outcome=\"aborted\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE undo_bytes gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("undo_bytes 4096"), std::string::npos) << text;
}

TEST(MetricsRegistry, JsonDumpCarriesExactValues) {
  MetricsRegistry reg;
  // 2^63 + 1 survives only with exact uint64 serialization.
  reg.counter("big_total").add(9223372036854775809ull);
  reg.gauge("ratio").set(0.5);

  const std::string json = reg.to_json().dump();
  EXPECT_EQ(json,
            "{\"counters\":{\"big_total\":9223372036854775809},\"gauges\":{\"ratio\":0.5}}");
}

TEST(MetricsRegistry, SavePicksFormatByExtension) {
  MetricsRegistry reg;
  reg.counter("saved_total").add(5);

  const std::string prom_path = ::testing::TempDir() + "metrics_test.prom";
  const std::string json_path = ::testing::TempDir() + "metrics_test.json";
  ASSERT_NO_THROW(reg.save(prom_path));
  ASSERT_NO_THROW(reg.save(json_path));

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_NE(slurp(prom_path).find("# TYPE saved_total counter"), std::string::npos);
  EXPECT_NE(slurp(json_path).find("\"saved_total\": 5"), std::string::npos);
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());

  // I/O failures must surface, with the errno string and the documented
  // parent-directory behaviour in the message.
  try {
    reg.save("/nonexistent-dir-for-sure/metrics.json");
    FAIL() << "save into a missing directory did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("parent directories are not created"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace perseas::obs
