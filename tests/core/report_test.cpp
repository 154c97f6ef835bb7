#include "core/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace ssdk::core {
namespace {

TEST(Report, SweepCsvLayout) {
  SweepTable table;
  table.x_label = "write_prop";
  table.x = {0.1, 0.2};
  table.series = {{"Shared", {1.0, 2.0}}, {"7:1", {3.0, 4.0}}};
  std::ostringstream os;
  write_sweep_csv(os, table);
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "write_prop,Shared,7:1");
  std::getline(is, line);
  EXPECT_EQ(line.substr(0, 8), "0.100000");
  EXPECT_NE(line.find("3.000000"), std::string::npos);
}

TEST(Report, ValidationCatchesLengthMismatch) {
  SweepTable table;
  table.x = {1.0, 2.0};
  table.series = {{"s", {1.0}}};
  EXPECT_THROW(table.validate(), std::invalid_argument);
  std::ostringstream os;
  EXPECT_THROW(write_sweep_csv(os, table), std::invalid_argument);
}

TEST(Report, ValidationCatchesCommaInName) {
  SweepTable table;
  table.x = {1.0};
  table.series = {{"a,b", {1.0}}};
  EXPECT_THROW(table.validate(), std::invalid_argument);
}

TEST(Report, CsvFileRoundTrip) {
  const std::string path = testing::TempDir() + "/ssdk_report_test.csv";
  SweepTable table;
  table.x_label = "x";
  table.x = {1.0};
  table.series = {{"y", {42.0}}};
  write_sweep_csv_file(path, table);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "x,y");
  std::remove(path.c_str());
  EXPECT_THROW(write_sweep_csv_file("/no/dir/x.csv", table),
               std::runtime_error);
}

TEST(Report, MarkdownIncludesAggregateRow) {
  RunResult result;
  result.avg_read_us = 10.0;
  result.avg_write_us = 20.0;
  result.total_us = 30.0;
  sim::TenantSummary t;
  t.reads = 1;
  t.read_sum_us = 10.0;
  t.writes = 1;
  t.write_sum_us = 20.0;
  result.per_tenant[3] = t;
  const std::string md = format_run_markdown(result);
  EXPECT_NE(md.find("| 3 |"), std::string::npos);
  EXPECT_NE(md.find("**all**"), std::string::npos);
  EXPECT_EQ(md.find("**aborted**"), std::string::npos);
}

TEST(Report, MarkdownSurfacesAbortReason) {
  RunResult result;
  result.device_full = true;
  result.device_full_tenant = 5;
  result.abort_reason = "device full: tenant 5 lpn 99 could not be placed";
  const std::string md = format_run_markdown(result);
  EXPECT_NE(md.find("**aborted** (tenant 5)"), std::string::npos);
  EXPECT_NE(md.find("device full: tenant 5 lpn 99"), std::string::npos);
}

TEST(Report, ReliabilityMarkdownCarriesRetryAndDeviceCounters) {
  RunResult result;
  sim::TenantSummary t;
  t.read_retries = 7;
  t.uncorrectable_reads = 2;
  t.program_retries = 3;
  t.retry_wait_ns = 5000;
  result.per_tenant[1] = t;
  result.counters.retired_blocks = 4;
  result.counters.rescue_migrations = 9;
  result.counters.lost_pages = 1;
  std::string md = format_reliability_markdown(result);
  EXPECT_NE(md.find("| 1 | 7 | 2 | 3 | 5 |"), std::string::npos);
  EXPECT_NE(md.find("retired_blocks=4"), std::string::npos);
  EXPECT_NE(md.find("rescue_migrations=9"), std::string::npos);
  EXPECT_EQ(md.find("aborted:"), std::string::npos);

  result.device_full = true;
  result.abort_reason = "device full: tenant 1 lpn 42 could not be placed";
  md = format_reliability_markdown(result);
  EXPECT_NE(md.find("aborted: device full: tenant 1 lpn 42"),
            std::string::npos);
}

TEST(Report, NormalizeToFirst) {
  const auto n = normalize_to_first({2.0, 4.0, 1.0});
  ASSERT_EQ(n.size(), 3u);
  EXPECT_DOUBLE_EQ(n[0], 1.0);
  EXPECT_DOUBLE_EQ(n[1], 2.0);
  EXPECT_DOUBLE_EQ(n[2], 0.5);
  EXPECT_TRUE(normalize_to_first({}).empty());
  const auto z = normalize_to_first({0.0, 5.0});
  EXPECT_DOUBLE_EQ(z[1], 0.0);
}

}  // namespace
}  // namespace ssdk::core
