// Snapshot/fork tour: checkpoint a device mid-trace to an SSDKSNP1 file,
// restore it, and prove the resumed run finishes exactly like the
// uninterrupted one; then fork the checkpointed device per strategy to ask
// "what if the allocation switched right here?" without re-simulating the
// warm-up — the shared-prefix sweep behind fast label generation and the
// keeper's what-if mode.
//
// Usage: snapshot_fork [requests=20000] [rate=12000] [cut=0.5] [seed=1]
//                      [snapshot=/tmp/snapshot_fork.ssdksnp] [audit=0]
//
// Exits 1 when the restored run's total differs from the uninterrupted
// one.
//
// audit=N (N > 0) runs the device invariant auditor every N arrivals and
// re-audits each device right after restore and after every fork — a
// self-checking mode for exercising snapshot changes. The audit throws
// ssdk::util::InvariantViolation on the first inconsistency it finds.
#include <cstdio>
#include <string>
#include <vector>

#include "core/label_gen.hpp"
#include "core/runner.hpp"
#include "core/strategy.hpp"
#include "snapshot/device_snapshot.hpp"
#include "trace/mixer.hpp"
#include "trace/synthetic.hpp"
#include "util/config.hpp"

using namespace ssdk;

namespace {

std::vector<sim::IoRequest> two_tenant_mix(std::uint64_t requests,
                                           double rate, std::uint64_t seed) {
  trace::SyntheticSpec writer;
  writer.name = "writer";
  writer.write_fraction = 0.9;
  writer.request_count = requests / 2;
  writer.intensity_rps = rate / 2;
  writer.seed = seed;
  trace::SyntheticSpec reader;
  reader.name = "reader";
  reader.write_fraction = 0.1;
  reader.request_count = requests - writer.request_count;
  reader.intensity_rps = rate / 2;
  reader.seed = seed + 1;
  const std::vector<trace::Workload> workloads = {
      trace::generate_synthetic(writer), trace::generate_synthetic(reader)};
  return trace::mix_workloads(workloads);
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const std::uint64_t requests = cfg.get_uint("requests", 20'000);
  const double rate = cfg.get_double("rate", 12'000.0);
  const double cut = cfg.get_double("cut", 0.5);
  const std::uint64_t seed = cfg.get_uint("seed", 1);
  const std::string path =
      cfg.get_string("snapshot", "/tmp/snapshot_fork.ssdksnp");
  const std::uint64_t audit = cfg.get_uint("audit", 0);

  const auto mixed = two_tenant_mix(requests, rate, seed);
  const auto space = core::StrategySpace::for_tenants(2);
  core::RunConfig run;
  run.audit_interval = audit;
  const auto features = core::features_of(mixed);
  const auto profiles = features.profiles(2);

  // 1. Uninterrupted baseline under the shared allocation.
  const auto baseline =
      core::run_with_strategy(mixed, core::Strategy{}, profiles, run);
  std::printf("uninterrupted: %.1f us total (avg read %.1f, avg write %.1f)\n",
              baseline.total_us, baseline.avg_read_us, baseline.avg_write_us);

  // 2. Same run, but checkpoint at the cut point, restore from the file,
  // and finish on the restored device. Identical result, by construction.
  const auto cut_at =
      static_cast<std::uint64_t>(cut * static_cast<double>(mixed.size()));
  auto device = core::make_run_device(mixed, core::Strategy{}, profiles, run);
  device->run_until_arrival(cut_at);
  snapshot::save_device_file(path, *device);
  std::printf("checkpointed request %llu/%llu to %s\n",
              static_cast<unsigned long long>(cut_at),
              static_cast<unsigned long long>(mixed.size()), path.c_str());

  auto restored = snapshot::load_device_file(path);
  if (audit > 0) {
    // The audit interval is not part of the snapshot; re-arm it and vet
    // the restored state before trusting it with the rest of the trace.
    restored->check_invariants();
    restored->set_audit_interval(audit);
  }
  restored->run_to_completion();
  const auto resumed = core::summarize(*restored);
  const bool matches = resumed.total_us == baseline.total_us;
  std::printf("restored+resumed: %.1f us total (%s baseline)\n\n",
              resumed.total_us, matches ? "matches" : "DIVERGES from");

  // 3. What-if: fork the checkpoint per strategy and let each fork finish
  // the remaining trace under its own allocation. One warm-up, many
  // futures.
  std::printf("what-if at request %llu:\n%-10s %12s\n",
              static_cast<unsigned long long>(cut_at), "strategy",
              "total us");
  for (std::size_t i = 0; i < space.size(); ++i) {
    auto fork = device->fork();
    core::configure_ssd(*fork, space.at(i), profiles, false);
    if (audit > 0) fork->check_invariants();
    fork->run_to_completion();
    std::printf("%-10s %12.1f\n", space.at(i).name().c_str(),
                core::summarize(*fork).total_us);
  }
  // A restore that diverges from the uninterrupted run is a failure.
  return matches ? 0 : 1;
}
