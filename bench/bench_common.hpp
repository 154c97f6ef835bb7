// Shared plumbing for the paper-reproduction benchmark binaries: consistent
// headers, config handling, and a cached trained model so the fig5/fig6/
// table5 benches don't each pay for dataset generation when
// bench_fig4_table3_training already produced one.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_revision.hpp"
#include "core/label_gen.hpp"
#include "core/learner.hpp"
#include "util/config.hpp"
#include "util/thread_pool.hpp"

namespace ssdk::bench {

inline constexpr const char* kDefaultModelPath =
    "/tmp/ssdkeeper_bench_model.txt";

/// Git revision the bench binary was built from: the short commit,
/// suffixed "-dirty" when tracked files had uncommitted changes, or
/// "unknown" outside a checkout (stamped at build time by
/// bench/CMakeLists.txt).
inline const char* git_rev() { return SSDK_BENCH_REVISION; }

/// Open a BENCH_*.json file and emit the shared schema prefix every bench
/// reports: `bench_name` (stable identifier, independent of the output
/// path), `git_rev` (provenance for archived artifacts), and `floor` (the
/// minimum acceptable value of the bench's headline metric; 0 =
/// informational, nothing asserted). The caller streams its own fields
/// after the prefix and writes the closing brace.
inline std::ofstream open_bench_json(const std::string& path,
                                     const char* bench_name, double floor) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench_name\": \"" << bench_name << "\",\n"
     << "  \"git_rev\": \"" << git_rev() << "\",\n"
     << "  \"floor\": " << floor << ",\n";
  return os;
}

inline void print_header(const char* title, const core::RunConfig& run) {
  std::printf("==================================================\n");
  std::printf("%s\n", title);
  std::printf("SSD (Table I, scaled blocks): %s\n",
              run.ssd.geometry.describe().c_str());
  std::printf("timing: %s\n",
              run.ssd.timing.describe(run.ssd.geometry).c_str());
  std::printf("==================================================\n");
}

/// Train (or load a cached) strategy learner for the 4-tenant space.
/// `workloads` and `requests` scale the label-generation effort.
inline core::ChannelAllocator obtain_allocator(
    const Config& cfg, const core::StrategySpace& space, ThreadPool& pool) {
  const std::string path = cfg.get_string("model", kDefaultModelPath);
  const bool retrain = cfg.get_bool("retrain", false);
  if (!retrain && std::filesystem::exists(path)) {
    std::printf("loading cached model: %s\n", path.c_str());
    return core::ChannelAllocator::load(path, space);
  }
  core::DatasetGenConfig gen;
  gen.workloads = cfg.get_uint("train_workloads", 400);
  gen.workload_duration_s = cfg.get_double("train_duration", 0.35);
  gen.requests_per_workload = cfg.get_uint("train_requests", 0);
  gen.seed = cfg.get_uint("train_seed", 2024);
  std::printf("training model: %llu workloads x %zu strategies "
              "(cache: %s)\n",
              static_cast<unsigned long long>(gen.workloads), space.size(),
              path.c_str());
  const auto dataset = core::generate_dataset(space, gen, pool);
  core::LearnerConfig learner;
  learner.optimizer = cfg.get_string("optimizer", "adam");
  learner.activation = cfg.get_string("activation", "logistic");
  learner.max_iterations = cfg.get_uint("iterations", 200);
  auto learned = core::train_strategy_learner(dataset.data, space, learner);
  std::printf("trained: test accuracy %.1f%% (loss %.3f)\n",
              learned.history.final_accuracy * 100.0,
              learned.history.final_loss);
  learned.allocator.save(path);
  return std::move(learned.allocator);
}

}  // namespace ssdk::bench
