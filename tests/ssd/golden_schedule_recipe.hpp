// Shared recipes for the golden bit-identical schedule check.
//
// Each recipe deterministically builds a request stream and a RunConfig,
// replays it with telemetry on, and hands back the tracer's event stream.
// The reference binary traces under tests/data/ were produced by running
// exactly these recipes on the pre-optimization simulator; the golden test
// replays them on the current build and asserts telemetry::first_divergence
// finds nothing. Any change to the recipes invalidates the references —
// regenerate them from a known-good build instead of editing in place.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/features.hpp"
#include "core/runner.hpp"
#include "telemetry/tracer.hpp"
#include "trace/catalog.hpp"
#include "trace/mixer.hpp"
#include "trace/synthetic.hpp"

namespace ssdk::testing {

struct GoldenRecipe {
  /// Stable identifier; the reference file is tests/data/<name>.ssdktrc.
  std::string name;
  std::vector<sim::IoRequest> requests;
  std::uint32_t tenants = 4;
  core::RunConfig config;
};

/// gtest prints a test's parameter next to its name; printing the recipe's
/// name keeps the ctest names the same from build to build, where the
/// default printer dumps the object's bytes, heap addresses included.
inline void PrintTo(const GoldenRecipe& recipe, std::ostream* os) {
  *os << recipe.name;
}

/// Scenario A: catalog Mix 1 on the default device (static allocation,
/// read priority, no write buffer). Covers the plain dispatch path.
inline GoldenRecipe golden_mix1_default() {
  GoldenRecipe r;
  r.name = "golden_mix1_default";
  r.requests = trace::build_mix(1, 0.1, 800);
  r.tenants = 4;
  return r;
}

/// Scenario B: catalog Mix 2 with a write buffer, pipelined writes, no
/// read priority and hybrid page allocation. Covers the buffered-write
/// FIFO, dynamic placement (LoadView backlogs) and the fair arbiter.
inline GoldenRecipe golden_mix2_buffered() {
  GoldenRecipe r;
  r.name = "golden_mix2_buffered";
  r.requests = trace::build_mix(2, 0.1, 800);
  r.tenants = 4;
  r.config.ssd.write_buffer.capacity_pages = 256;
  r.config.ssd.read_priority = false;
  r.config.ssd.pipelined_writes = true;
  r.config.hybrid_page_allocation = true;
  return r;
}

/// Scenario C's overwrite-heavy single-tenant stream over
/// `address_space_pages` LPNs, on a tiny two-channel device.
inline GoldenRecipe gc_churn_recipe(std::string name,
                                    std::uint64_t address_space_pages) {
  GoldenRecipe r;
  r.name = std::move(name);
  trace::SyntheticSpec spec;
  spec.name = "gc_churn";
  spec.write_fraction = 0.9;
  spec.request_count = 1200;
  spec.intensity_rps = 4'000.0;
  spec.mean_request_pages = 2.0;
  spec.max_request_pages = 8;
  spec.address_space_pages = address_space_pages;
  spec.zipf_theta = 0.3;
  spec.sequential_fraction = 0.2;
  spec.seed = 7;
  const trace::Workload workloads[] = {trace::generate_synthetic(spec)};
  r.requests = trace::mix_workloads(workloads);
  r.tenants = 1;
  r.config.ssd.geometry.channels = 2;
  r.config.ssd.geometry.chips_per_channel = 1;
  r.config.ssd.geometry.planes_per_chip = 2;
  r.config.ssd.geometry.blocks_per_plane = 16;
  r.config.ssd.geometry.pages_per_block = 16;
  return r;
}

/// Scenario C: overwrite-heavy synthetic stream on a deliberately tiny
/// geometry so garbage collection runs many rounds. Covers victim
/// selection and erase scheduling; every victim is fully invalid by the
/// time GC picks it, so nothing migrates.
inline GoldenRecipe golden_gc_churn() {
  return gc_churn_recipe("golden_gc_churn", 128);
}

/// Scenario D: write-heavy three-tenant stream on the multiplane device
/// with held-bus (non-pipelined) writes and the round-robin arbiter.
/// Every plane is an execution unit, so each channel's write-grant argmin
/// runs over eight keys, and writes queue behind planes busy with reads.
inline GoldenRecipe golden_multiplane_writes() {
  GoldenRecipe r;
  r.name = "golden_multiplane_writes";
  std::vector<trace::Workload> workloads;
  const double write_fractions[] = {0.9, 0.85, 0.4};
  for (std::uint64_t t = 0; t < 3; ++t) {
    trace::SyntheticSpec spec;
    spec.name = "mp_writer_" + std::to_string(t);
    spec.write_fraction = write_fractions[t];
    spec.request_count = 500;
    spec.intensity_rps = 6'000.0;
    spec.mean_request_pages = 3.0;
    spec.max_request_pages = 16;
    spec.address_space_pages = 1 << 14;
    spec.seed = 11 + t;
    workloads.push_back(trace::generate_synthetic(spec));
  }
  r.requests = trace::mix_workloads(workloads);
  r.tenants = 3;
  r.config.ssd.multiplane_program = true;
  r.config.ssd.pipelined_writes = false;
  r.config.ssd.read_priority = false;
  return r;
}

/// Scenario E: Scenario C's stream over 224 LPNs, with GC triggered at
/// four free blocks per plane and run until five are free. Victims still
/// hold valid pages, so GC migrates them: covers migration reads and
/// programs, and GC writes in flight at a snapshot.
inline GoldenRecipe golden_gc_migrate() {
  GoldenRecipe r = gc_churn_recipe("golden_gc_migrate", 224);
  r.config.ssd.ftl.gc_trigger_free_blocks = 4;
  r.config.ssd.ftl.gc_target_free_blocks = 5;
  return r;
}

inline std::vector<GoldenRecipe> all_golden_recipes() {
  std::vector<GoldenRecipe> recipes;
  recipes.push_back(golden_mix1_default());
  recipes.push_back(golden_mix2_buffered());
  recipes.push_back(golden_gc_churn());
  recipes.push_back(golden_multiplane_writes());
  recipes.push_back(golden_gc_migrate());
  return recipes;
}

/// Replay a recipe with telemetry on. The tracer must outlive the call.
inline core::RunResult replay_golden(const GoldenRecipe& recipe,
                                     telemetry::Tracer& tracer) {
  const auto features = core::features_of(recipe.requests);
  const auto profiles = features.profiles(recipe.tenants);
  core::RunConfig config = recipe.config;
  config.tracer = &tracer;
  return core::run_with_strategy(recipe.requests, core::Strategy{}, profiles,
                                 config);
}

}  // namespace ssdk::testing
