#include "ssd/ssd.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

namespace ssdk::ssd {
namespace {

sim::IoRequest make_req(std::uint64_t id, sim::TenantId tenant,
                        sim::OpType type, std::uint64_t lpn,
                        std::uint32_t pages, SimTime arrival) {
  sim::IoRequest r;
  r.id = id;
  r.tenant = tenant;
  r.type = type;
  r.lpn = lpn;
  r.page_count = pages;
  r.arrival = arrival;
  return r;
}

TEST(SsdBasic, SingleReadLatencyIsUnloadedServiceTime) {
  Ssd ssd;
  const auto& t = ssd.options().timing;
  const Duration expected =
      t.read_ns + t.page_transfer_ns(ssd.options().geometry);
  ssd.submit(make_req(0, 0, sim::OpType::kRead, 0, 1, 0));
  ssd.run_to_completion();
  EXPECT_DOUBLE_EQ(ssd.metrics().tenant(0).avg_read_us(), to_us(expected));
}

TEST(SsdBasic, SingleWriteLatencyIsTransferPlusProgram) {
  Ssd ssd;
  const auto& t = ssd.options().timing;
  const Duration expected =
      t.page_transfer_ns(ssd.options().geometry) + t.program_ns;
  ssd.submit(make_req(0, 0, sim::OpType::kWrite, 0, 1, 0));
  ssd.run_to_completion();
  EXPECT_DOUBLE_EQ(ssd.metrics().tenant(0).avg_write_us(), to_us(expected));
}

TEST(SsdBasic, StripedReadExploitsChannelParallelism) {
  Ssd ssd;
  const auto& g = ssd.options().geometry;
  const auto& t = ssd.options().timing;
  // 8 sequential pages stripe over 8 channels: latency ~ one page service.
  ssd.submit(make_req(0, 0, sim::OpType::kRead, 0, g.channels, 0));
  ssd.run_to_completion();
  const double one_page = to_us(t.read_service_ns(g));
  EXPECT_LT(ssd.metrics().tenant(0).avg_read_us(), one_page * 1.5);
}

TEST(SsdBasic, SequentialPagesOnOneChannelSerializeOnBus) {
  SsdOptions options;
  Ssd ssd(options);  // held-bus default
  ssd.set_tenant_channels(0, {0});  // single channel
  const auto& g = ssd.options().geometry;
  const auto& t = ssd.options().timing;
  ssd.submit(make_req(0, 0, sim::OpType::kRead, 0, 4, 0));
  ssd.run_to_completion();
  // Four transfers share one bus: latency >= 4 transfers.
  EXPECT_GE(ssd.metrics().tenant(0).avg_read_us(),
            to_us(4 * t.page_transfer_ns(g)));
}

TEST(SsdBasic, CompletionHookFires) {
  Ssd ssd;
  int completions = 0;
  ssd.set_completion_hook([&](const sim::Completion& c) {
    ++completions;
    EXPECT_EQ(c.tenant, 0u);
  });
  ssd.submit(make_req(0, 0, sim::OpType::kRead, 0, 1, 0));
  ssd.submit(make_req(1, 0, sim::OpType::kWrite, 9, 2, 100));
  ssd.run_to_completion();
  EXPECT_EQ(completions, 2);
}

TEST(SsdBasic, ArrivalHookSeesRequests) {
  Ssd ssd;
  std::vector<std::uint64_t> ids;
  ssd.set_arrival_hook(
      [&](const sim::IoRequest& r) { ids.push_back(r.id); });
  ssd.submit(make_req(5, 0, sim::OpType::kRead, 0, 1, 0));
  ssd.submit(make_req(6, 0, sim::OpType::kRead, 1, 1, 10));
  ssd.run_to_completion();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 5u);
  EXPECT_EQ(ids[1], 6u);
}

TEST(SsdBasic, RejectsZeroPageRequest) {
  Ssd ssd;
  EXPECT_THROW(ssd.submit(make_req(0, 0, sim::OpType::kRead, 0, 0, 0)),
               std::invalid_argument);
}

TEST(SsdBasic, RejectsInternalTenantRequest) {
  // kInternalTenant is GC traffic's id; host requests never carry it.
  Ssd ssd;
  EXPECT_THROW(ssd.submit(make_req(0, sim::kInternalTenant,
                                   sim::OpType::kRead, 0, 1, 0)),
               std::invalid_argument);
}

TEST(SsdBasic, RejectsDecreasingArrivals) {
  Ssd ssd;
  ssd.submit(make_req(0, 0, sim::OpType::kRead, 0, 1, 100));
  EXPECT_THROW(ssd.submit(make_req(1, 0, sim::OpType::kRead, 0, 1, 50)),
               std::invalid_argument);
}

TEST(SsdBasic, RejectsInvalidTimingAndWriteBuffer) {
  // Each floating-point field below is cast to an integer (the page
  // transfer time, the flush thresholds), so the device refuses any value
  // that cast could not hold before it computes either.
  using Break = void (*)(SsdOptions&);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, Break> cases[] = {
      {"xfer_ns_per_byte NaN",
       [](SsdOptions& o) { o.timing.xfer_ns_per_byte = kNan; }},
      {"xfer_ns_per_byte < 0",
       [](SsdOptions& o) { o.timing.xfer_ns_per_byte = -0.5; }},
      {"xfer_ns_per_byte infinite",
       [](SsdOptions& o) { o.timing.xfer_ns_per_byte = kInf; }},
      {"page transfer past 2^64 ns",
       [](SsdOptions& o) { o.timing.xfer_ns_per_byte = 1e16; }},
      {"command overhead pushes the transfer past 2^64 ns",
       [](SsdOptions& o) {
         o.timing.cmd_overhead_ns = std::numeric_limits<Duration>::max();
       }},
      {"high_watermark NaN",
       [](SsdOptions& o) { o.write_buffer.high_watermark = kNan; }},
      {"high_watermark < 0",
       [](SsdOptions& o) { o.write_buffer.high_watermark = -0.1; }},
      {"low_watermark infinite",
       [](SsdOptions& o) { o.write_buffer.low_watermark = kInf; }},
      {"low_watermark x capacity past 2^64",
       [](SsdOptions& o) {
         o.write_buffer.capacity_pages = 64;
         o.write_buffer.low_watermark = 1e18;
       }},
  };
  for (const auto& [name, breaks] : cases) {
    SsdOptions options;
    breaks(options);
    EXPECT_THROW(Ssd{options}, std::invalid_argument) << name;
  }

  // The boundaries are legal: a free bus, zero watermarks, and a high
  // watermark above 1, which disables automatic flushing.
  SsdOptions edge;
  edge.timing.xfer_ns_per_byte = 0.0;
  edge.write_buffer.capacity_pages = 64;
  edge.write_buffer.high_watermark = 2.0;
  edge.write_buffer.low_watermark = 0.0;
  EXPECT_NO_THROW(Ssd{edge});
}

TEST(SsdBasic, ClockAdvancesToCompletion) {
  Ssd ssd;
  ssd.submit(make_req(0, 0, sim::OpType::kWrite, 0, 1, 1000));
  ssd.run_to_completion();
  EXPECT_GT(ssd.now(), 1000u + ssd.options().timing.program_ns);
}

TEST(SsdBasic, CountsHostOps) {
  Ssd ssd;
  ssd.submit(make_req(0, 0, sim::OpType::kRead, 0, 3, 0));
  ssd.submit(make_req(1, 1, sim::OpType::kWrite, 0, 2, 10));
  ssd.run_to_completion();
  EXPECT_EQ(ssd.metrics().counters().host_reads, 1u);
  EXPECT_EQ(ssd.metrics().counters().host_writes, 1u);
  EXPECT_EQ(ssd.metrics().counters().page_ops, 5u);
}

TEST(SsdBasic, MultiplaneReducesWriteQueueing) {
  // Back-to-back writes to one channel under pipelined buses: with
  // chip-serial units two writes overlap on 2 chips; with multiplane the
  // channel pipelines across 8 planes and the same burst completes
  // sooner. (Under the default held-bus mode the channel serializes
  // writes regardless, so pipelining is enabled for both arms.)
  auto run = [](bool multiplane) {
    SsdOptions options;
    options.multiplane_program = multiplane;
    options.pipelined_writes = true;
    Ssd ssd(options);
    ssd.set_tenant_channels(0, {0});
    for (std::uint64_t i = 0; i < 8; ++i) {
      sim::IoRequest r;
      r.id = i;
      r.tenant = 0;
      r.type = sim::OpType::kWrite;
      r.lpn = i;
      r.page_count = 1;
      r.arrival = 0;
      ssd.submit(r);
    }
    ssd.run_to_completion();
    return ssd.metrics().tenant(0).avg_write_us();
  };
  EXPECT_LT(run(true), run(false));
}

}  // namespace
}  // namespace ssdk::ssd
