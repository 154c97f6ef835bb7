// Trace replay: run real MSR-Cambridge CSV traces (or the synthetic
// catalog stand-ins when no files are given) through the simulated SSD
// under a chosen channel-allocation strategy, and print per-tenant
// latencies, device counters and wear statistics.
//
// Usage:
//   trace_replay trace0=/path/mds_0.csv trace1=/path/web_2.csv
//                [strategy=Shared] [hybrid=1] [max_requests=200000]
//                [time_scale=0.01] [page_kb=16]
//   trace_replay mix=3 [duration=0.5] [strategy=4:4]
//
// `strategy` accepts any name from the strategy space of the tenant count
// ("Shared", "6:2", "5:1:1:1", ...) plus "Isolated".
#include <cstdio>
#include <vector>

#include "core/features.hpp"
#include "core/runner.hpp"
#include "trace/catalog.hpp"
#include "trace/mixer.hpp"
#include "trace/msr_parser.hpp"
#include "trace/workload_stats.hpp"
#include "util/config.hpp"

using namespace ssdk;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);

  // Gather workloads: explicit CSV files first, else a catalog mix.
  std::vector<trace::Workload> workloads;
  std::vector<std::string> names;
  for (int t = 0; t < 4; ++t) {
    const std::string key = "trace" + std::to_string(t);
    if (!cfg.has(key)) continue;
    trace::MsrParseOptions options;
    options.page_size_bytes =
        static_cast<std::uint32_t>(cfg.get_uint("page_kb", 16)) * 1024;
    options.time_scale = cfg.get_double("time_scale", 0.01);
    options.max_records = cfg.get_uint("max_requests", 200'000);
    const std::string path = cfg.get_string(key, "");
    workloads.push_back(trace::parse_msr_file(path, options));
    names.push_back(path);
  }

  std::vector<sim::IoRequest> mixed;
  if (workloads.empty()) {
    const auto mix =
        static_cast<std::uint32_t>(cfg.get_uint("mix", 1));
    const double duration = cfg.get_double("duration", 0.5);
    std::printf("no trace files given; replaying catalog Mix%u "
                "(%.2f s of synthetic MSR stand-ins)\n",
                mix, duration);
    mixed = trace::build_mix(mix, duration);
    for (const auto& n : trace::mix_workload_names(mix)) names.push_back(n);
  } else {
    mixed = trace::mix_workloads(workloads,
                                 cfg.get_uint("max_requests", 200'000));
  }

  const auto tenants = static_cast<std::uint32_t>(names.size());
  const auto stats = trace::per_tenant_stats(mixed, tenants);
  std::printf("\ntenants:\n");
  for (std::uint32_t t = 0; t < tenants; ++t) {
    std::printf("  %u %-28s %s\n", t, names[t].c_str(),
                stats[t].describe().c_str());
  }

  // Resolve the strategy.
  const auto space =
      core::StrategySpace::for_tenants(tenants == 2 ? 2 : 4);
  const std::string strategy_name = cfg.get_string("strategy", "Shared");
  const core::Strategy strategy =
      strategy_name == "Isolated" ? space.isolated()
                                  : space.at(space.index_of(strategy_name));

  core::RunConfig run;
  run.hybrid_page_allocation = cfg.get_bool("hybrid", true);
  const auto features = core::features_of(mixed);
  const auto profiles = features.profiles(tenants);

  std::printf("\nreplaying %zu requests under %s (hybrid=%d) on %s\n",
              mixed.size(), strategy.name().c_str(),
              run.hybrid_page_allocation ? 1 : 0,
              run.ssd.geometry.describe().c_str());
  std::printf("measured features: %s\n", features.describe().c_str());

  ssd::Ssd device(run.ssd);
  core::configure_ssd(device, strategy, profiles,
                      run.hybrid_page_allocation);
  device.submit(mixed);
  device.run_to_completion();

  const auto result = core::summarize(device);
  std::printf("\nresults:\n");
  std::printf("  avg write %.1f us, avg read %.1f us, total %.1f us\n",
              result.avg_write_us, result.avg_read_us, result.total_us);
  // RunResult keeps summaries only; the distributions live on the device.
  for (const auto& [tenant, summary] : result.per_tenant) {
    const sim::TenantMetrics& metrics = device.metrics().tenant(tenant);
    std::printf("  tenant %u: read %s us | write %s us\n", tenant,
                summarize(metrics.read_latency_us).c_str(),
                summarize(metrics.write_latency_us).c_str());
  }
  std::printf("\ndevice counters:\n");
  std::printf("  page ops %llu, conflicts %llu (%.1f%%), gc migrations "
              "%llu, erases %llu\n",
              static_cast<unsigned long long>(result.counters.page_ops),
              static_cast<unsigned long long>(result.counters.conflicts),
              device.metrics().conflict_rate() * 100.0,
              static_cast<unsigned long long>(
                  result.counters.gc_migrations),
              static_cast<unsigned long long>(result.counters.erases));
  const auto wear = device.ftl().blocks().wear_stats();
  std::printf("  wear: %llu total erases (min %llu / max %llu per block)\n",
              static_cast<unsigned long long>(wear.total_erases),
              static_cast<unsigned long long>(wear.min_erases),
              static_cast<unsigned long long>(wear.max_erases));
  std::printf("  avg queue wait: read %.1f us, write %.1f us\n",
              result.counters.avg_read_wait_us(),
              result.counters.avg_write_wait_us());
  std::printf("  channel utilization:");
  for (std::uint32_t ch = 0; ch < run.ssd.geometry.channels; ++ch) {
    std::printf(" %.0f%%", device.channel_utilization(ch) * 100.0);
  }
  std::printf("\n");
  return 0;
}
