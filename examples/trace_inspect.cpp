// Trace inspector: replay one of the paper's Table-IV mixes with telemetry
// on, export the run as a Chrome trace (open in chrome://tracing or
// https://ui.perfetto.dev), a rolling-window rollup CSV and a compact
// binary trace, then print the top-N slowest requests with a per-span
// breakdown of where their time went.
//
// Usage: trace_inspect [mix=1] [duration_s=0.4] [max_requests=30000]
//                      [window_ms=50] [top=10] [out=/tmp/ssdk_mix1]
//                      [model=path]   (with a model file: run under the
//                                      keeper so its decisions land on the
//                                      trace timeline; without: Shared)
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/keeper.hpp"
#include "telemetry/binary_trace.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/rollup.hpp"
#include "trace/catalog.hpp"
#include "util/config.hpp"

using namespace ssdk;

namespace {

struct RequestBreakdown {
  telemetry::TraceEvent request;
  Duration wait_ns = 0;
  Duration bus_ns = 0;
  Duration flash_ns = 0;
  Duration retry_ns = 0;
};

std::vector<RequestBreakdown> slowest_requests(
    const std::vector<telemetry::TraceEvent>& events, std::size_t top_n) {
  std::map<std::uint64_t, RequestBreakdown> by_request;
  for (const auto& e : events) {
    if (e.kind == telemetry::SpanKind::kRequest &&
        e.request_id != telemetry::kNoRequestId) {
      by_request[e.request_id].request = e;
    }
  }
  for (const auto& e : events) {
    if (e.request_id == telemetry::kNoRequestId) continue;
    const auto it = by_request.find(e.request_id);
    if (it == by_request.end()) continue;
    switch (e.kind) {
      case telemetry::SpanKind::kQueueWait:
        it->second.wait_ns += e.duration();
        break;
      case telemetry::SpanKind::kBusTransfer:
        it->second.bus_ns += e.duration();
        break;
      case telemetry::SpanKind::kFlashRead:
      case telemetry::SpanKind::kFlashProgram:
      case telemetry::SpanKind::kFlashErase:
        it->second.flash_ns += e.duration();
        break;
      case telemetry::SpanKind::kRetrySense:
        it->second.retry_ns += e.duration();
        break;
      default:
        break;
    }
  }
  std::vector<RequestBreakdown> out;
  out.reserve(by_request.size());
  for (const auto& [id, b] : by_request) out.push_back(b);
  std::sort(out.begin(), out.end(),
            [](const RequestBreakdown& a, const RequestBreakdown& b) {
              return a.request.duration() > b.request.duration();
            });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const auto mix = static_cast<std::uint32_t>(cfg.get_uint("mix", 1));
  const double duration_s = cfg.get_double("duration_s", 0.4);
  const std::uint64_t max_requests = cfg.get_uint("max_requests", 30'000);
  const auto window_ms = cfg.get_uint("window_ms", 50);
  const std::size_t top_n = cfg.get_uint("top", 10);
  const std::string out = cfg.get_string("out", "/tmp/ssdk_mix" +
                                                    std::to_string(mix));
  const std::string model_path = cfg.get_string("model", "");

  const auto requests = trace::build_mix(mix, duration_s, max_requests);
  const auto tenant_count = trace::mix_workload_names(mix).size();
  std::printf("mix %u: %zu requests over %.2f s, %zu tenants\n", mix,
              requests.size(), duration_s, tenant_count);

  telemetry::Tracer tracer;
  core::RunResult run;
  if (!model_path.empty() && std::filesystem::exists(model_path)) {
    const auto space = core::StrategySpace::for_tenants(
        static_cast<std::uint32_t>(tenant_count));
    const auto allocator = core::ChannelAllocator::load(model_path, space);
    core::KeeperConfig keeper;
    const auto result = core::run_with_keeper(requests, allocator, keeper,
                                              ssd::SsdOptions{}, &tracer);
    run = result.run;
    std::printf("keeper: %zu decision(s), final strategy %s\n",
                result.decisions.size(), result.strategy.name().c_str());
  } else {
    if (!model_path.empty()) {
      std::printf("model %s not found; replaying under Shared\n",
                  model_path.c_str());
    }
    const auto features = core::features_of(requests);
    const auto profiles =
        features.profiles(static_cast<std::uint32_t>(tenant_count));
    core::RunConfig config;
    config.tracer = &tracer;
    run = core::run_with_strategy(requests, core::Strategy{}, profiles,
                                  config);
  }
  if (run.device_full) {
    std::printf("note: %s\n", run.abort_reason.c_str());
  }
  std::printf("replayed: avg read %.1f us, avg write %.1f us, total %.1f "
              "us\n", run.avg_read_us, run.avg_write_us, run.total_us);
  std::printf("trace: %llu events recorded, %llu dropped (ring %zu)\n",
              static_cast<unsigned long long>(tracer.recorded()),
              static_cast<unsigned long long>(tracer.dropped()),
              tracer.config().capacity_events);

  const std::string chrome_path = out + ".trace.json";
  const std::string csv_path = out + ".rollup.csv";
  const std::string binary_path = out + ".ssdktrc";
  telemetry::write_chrome_trace_file(chrome_path, tracer);

  telemetry::RollupConfig rollup_config;
  rollup_config.window_ns = static_cast<Duration>(window_ms) * kMillisecond;
  rollup_config.channels = ssd::SsdOptions{}.geometry.channels;
  const auto events = tracer.events();
  const auto rows = telemetry::build_rollup(events, rollup_config);
  telemetry::write_rollup_csv_file(csv_path, rows);
  telemetry::write_binary_trace_file(binary_path, tracer);
  std::printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
              chrome_path.c_str());
  std::printf("wrote %s (%zu window rows) and %s\n", csv_path.c_str(),
              rows.size(), binary_path.c_str());

  const auto slowest = slowest_requests(events, top_n);
  std::printf("\ntop %zu slowest requests:\n", slowest.size());
  std::printf("%10s %6s %10s | %10s %10s %10s %10s %10s\n", "request",
              "tenant", "op", "total us", "wait us", "bus us", "flash us",
              "retry us");
  for (const auto& b : slowest) {
    std::printf("%10llu %6u %10s | %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                static_cast<unsigned long long>(b.request.request_id),
                b.request.tenant, telemetry::op_class_name(b.request.op),
                to_us(b.request.duration()), to_us(b.wait_ns),
                to_us(b.bus_ns), to_us(b.flash_ns), to_us(b.retry_ns));
  }
  std::printf("\nwait = time queued for a busy chip/bus; bus = channel "
              "transfer occupancy; flash = array read/program/erase; "
              "retry = fault-model re-sensing. Overlapping per-request "
              "spans can sum past the total.\n");
  return 0;
}
