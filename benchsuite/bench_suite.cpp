// bench_suite: the repository benchmark.
//
//   bench_suite [workload=all|mixes|gc_steady|pipeline|fleet] [seed=1]
//               [seconds=20] [size=full|smoke] [traced=0|1]
//               [trace_out=PATH] [json=PATH]
//
// Runs each workload's job repeatedly for `seconds` host seconds after a
// timed set-up, prints every metric as "workload metric value unit",
// writes them (with quartiles, oracle verdicts and provenance) to `json`,
// and exits 1 when a correctness oracle fails. `traced=1` adds one
// span-instrumented repetition and the layer probes (the per-layer
// metrics); with trace_out the spans are written as a Chrome trace.
// `workload=all` runs every workload in its own child process, so peak RSS
// and allocator state are per workload; trace_out and json then name
// per-workload files <stem>.<workload><ext> and a combined json.
#include <spawn.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_revision.hpp"
#include "suite.hpp"
#include "util/config.hpp"

extern char** environ;

using namespace ssdk;

namespace {

const std::set<std::string> kKeys = {"workload", "seed",    "seconds",
                                     "size",     "traced",  "trace_out",
                                     "json"};

/// `path` with the workload name inserted before the extension.
std::string per_workload_path(const std::string& path,
                              std::string_view workload) {
  const std::filesystem::path p(path);
  std::filesystem::path out = p.parent_path();
  out /= p.stem().string() + "." + std::string(workload) +
         p.extension().string();
  return out.string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Run every workload as a child process of this same binary; returns the
/// worst child exit status.
int run_all(const Config& cfg, const suite::Options& options,
            const std::string& json_path) {
  int worst = 0;
  std::ostringstream combined;
  combined << "{\"revision\": \"" << SSDK_BENCH_REVISION
           << "\", \"seed\": " << options.seed << ", \"workloads\": {";
  bool first = true;
  for (const std::string_view workload : suite::kWorkloads) {
    std::vector<std::string> args = {"bench_suite",
                                     "workload=" + std::string(workload)};
    for (const auto& key : cfg.keys()) {
      if (key == "workload" || key == "json" || key == "trace_out") continue;
      args.push_back(key + "=" + cfg.get_string(key, ""));
    }
    if (!options.trace_out.empty()) {
      args.push_back("trace_out=" +
                     per_workload_path(options.trace_out, workload));
    }
    const std::string part =
        json_path.empty() ? "" : per_workload_path(json_path, workload);
    if (!part.empty()) args.push_back("json=" + part);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      throw std::runtime_error("cannot start a workload process");
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) {
      throw std::runtime_error("lost a workload process");
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
    if (code != 0) {
      std::fprintf(stderr, "bench_suite: workload %s exited with %d\n",
                   std::string(workload).c_str(), code);
    }
    worst = std::max(worst, code);
    if (!part.empty() && std::filesystem::exists(part)) {
      combined << (first ? "\n" : ",\n") << "\"" << workload
               << "\": " << read_file(part);
      first = false;
      std::filesystem::remove(part);
    }
  }
  combined << "}}\n";
  if (!json_path.empty()) std::ofstream(json_path) << combined.str();
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = Config::from_args(argc, argv);
    for (const auto& key : cfg.keys()) {
      if (kKeys.count(key) == 0) {
        throw std::invalid_argument("unknown option '" + key + "'");
      }
    }
    suite::Options options;
    options.workload = cfg.get_string("workload", "all");
    options.seed = cfg.get_uint("seed", 1);
    options.seconds = cfg.get_double("seconds", 20.0);
    const std::string size = cfg.get_string("size", "full");
    if (size != "full" && size != "smoke") {
      throw std::invalid_argument("size must be full or smoke");
    }
    options.smoke = size == "smoke";
    options.traced = cfg.get_bool("traced", false);
    options.trace_out = cfg.get_string("trace_out", "");
    options.pool_workers = suite::default_pool_workers();
    const std::string json_path = cfg.get_string("json", "");

    if (options.workload == "all") return run_all(cfg, options, json_path);

    suite::Report report(options.workload);
    report.set_info("revision", SSDK_BENCH_REVISION);
    report.set_info("seed", std::to_string(options.seed));
    report.set_info("pool_workers", std::to_string(options.pool_workers));
    if (options.workload == "mixes") {
      suite::run_mixes(options, report);
    } else if (options.workload == "gc_steady") {
      suite::run_gc_steady(options, report);
    } else if (options.workload == "pipeline") {
      suite::run_pipeline(options, report);
    } else if (options.workload == "fleet") {
      suite::run_fleet_workload(options, report);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    report.check("no_failed_requests", report.failed() == 0);
    report.set("peak_heap_mb", suite::peak_heap_mb(), "MB");
    report.set("peak_rss_mb", suite::peak_rss_mb(), "MB");
    report.print(stdout);
    if (!json_path.empty()) {
      std::ofstream os(json_path);
      os << report.json() << "\n";
      if (!os) throw std::runtime_error("cannot write " + json_path);
    }
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 2;
  }
}
