// Shared plumbing of the repository benchmark (bench_suite): options, the
// metric report, host clocks, the global allocation counter, the
// benchmark's own span recorder, and the workload / layer-probe entry
// points.
//
// Everything here lives in the benchmark package; the simulator under
// src/ is only called through its public headers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/allocator.hpp"
#include "core/runner.hpp"
#include "core/strategy.hpp"
#include "sim/request.hpp"
#include "util/thread_pool.hpp"

namespace ssdk::suite {

/// The four workloads, in the order `workload=all` runs them.
inline constexpr std::string_view kWorkloads[] = {"mixes", "gc_steady",
                                                  "pipeline", "fleet"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Host seconds the timed phase keeps repeating the workload's job.
  double seconds = 20.0;
  /// Tiny inputs for the smoke test; every oracle still runs.
  bool smoke = false;
  /// Add the traced repetition and the layer probes (per-layer metrics).
  bool traced = false;
  /// Span file written by the traced repetition ("" = none).
  std::string trace_out;
  /// Pool workers: nproc - 1, because parallel_for's caller also runs
  /// tasks, so the process keeps at most nproc threads busy.
  std::size_t pool_workers = 1;
};

/// nproc - 1 workers, at least one.
std::size_t default_pool_workers();

// --- host clocks and counters ----------------------------------------------

/// Monotonic wall clock, seconds.
double wall_seconds();
/// CPU time of the whole process (all threads), seconds.
double cpu_seconds();
/// Global operator-new calls since process start (all threads).
std::uint64_t allocations();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();
/// Peak of the bytes live in operator-new allocations, MiB.
double peak_heap_mb();

/// Host speed calibration. On a host shared with other tenants every
/// thread can run 30-40% slower for minutes at a time, in CPU time as well
/// as wall time. A fixed kernel of the benchmark's own (sort + hash map,
/// no simulator code) slows down with it. Runs the kernel once on each of
/// `threads` threads at the same time and returns the mean seconds.
double calibration_seconds(std::size_t threads);
/// Host `seconds` measured while the kernel took `calibration_s` on
/// `threads` threads, converted to seconds of the reference host: a 4-vCPU
/// 2.1 GHz VM, where the kernel takes about 40 ms on one thread and 80 ms
/// per thread on four (the threads share memory bandwidth).
double calibrated(double seconds, double calibration_s, std::size_t threads);

// --- statistics --------------------------------------------------------------

/// Median and quartiles of a sample, quartiles computed like Python's
/// statistics.quantiles(values, n=4) (exclusive method).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Quartiles quartiles(std::vector<double> values);
double median_of(std::vector<double> values);

/// FNV-1a over doubles and integers: the fingerprint two repetitions (or
/// two thread counts, or a traced and an untraced run) must share.
class Fingerprint {
 public:
  void mix(std::uint64_t v);
  void mix(double v);
  void mix(const core::RunResult& r);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Quartiles and sample count of repeated host timings; n = 0 for a
  /// single measured or simulated value.
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
  /// A simulated statistic: deterministic for a given seed, so two
  /// commits that only change host speed must report it unchanged.
  bool exact = false;
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  const std::string& workload() const { return workload_; }

  /// Record one measured value (each name once per run).
  void set(const std::string& name, double value, const std::string& unit);
  /// Record a simulated statistic (see Metric::exact).
  void set_simulated(const std::string& name, double value,
                     const std::string& unit);
  /// Record the median of repeated samples with their quartiles and n.
  void set_samples(const std::string& name, std::vector<double> samples,
                   const std::string& unit);
  /// Record a correctness oracle; any false makes the run incorrect.
  void check(const std::string& oracle, bool ok,
             const std::string& detail = {});
  /// Simulated host requests the run attempted and how many failed
  /// (device-full aborts, uncorrectable reads, never-completed requests).
  void count_requests(std::uint64_t attempted, std::uint64_t failed);
  void set_self_time(const std::string& layer, double seconds);
  void set_info(const std::string& key, const std::string& value);

  bool correct() const;
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// One line per metric: "workload metric value unit".
  void print(std::FILE* out) const;
  std::string json() const;

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> oracles_;
  std::vector<std::pair<std::string, double>> self_times_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- spans -------------------------------------------------------------------

/// One closed span of the benchmark's own code around a call into a layer.
struct SpanRecord {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root on its thread
  std::uint32_t thread = 0;
};

/// Start recording spans, process-wide (pool workers included).
void start_spans();
/// Stop recording and return every span, ordered by start time.
std::vector<SpanRecord> stop_spans();

/// RAII span; does nothing (one branch) unless spans are being recorded.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double start_ = 0.0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool active_ = false;
};

/// Self time per span name prefix before the first '.', i.e. per layer:
/// each span's duration minus the part its children on the same thread
/// cover.
std::vector<std::pair<std::string, double>> layer_self_times(
    const std::vector<SpanRecord>& spans);
/// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
void write_span_file(const std::string& path,
                     const std::vector<SpanRecord>& spans,
                     const std::string& workload);

// --- workloads and probes ----------------------------------------------------

/// Inputs of the layer probes: a request stream taken from the workload,
/// the device configuration it runs on, and the workload's strategy and
/// allocator (null = an untrained network of the paper's shape).
struct ProbeInput {
  std::span<const sim::IoRequest> stream;
  core::RunConfig run;
  core::Strategy strategy;
  std::vector<core::TenantProfile> profiles;
  const core::ChannelAllocator* allocator = nullptr;
};

/// Host-time and count probes of each layer, reported as per-layer
/// metrics (sim, ftl, sched, ssd, snapshot, core, nn, telemetry, fleet).
void run_layer_probes(const ProbeInput& input, const Options& options,
                      Report& report);

void run_mixes(const Options& options, Report& report);
void run_gc_steady(const Options& options, Report& report);
void run_pipeline(const Options& options, Report& report);
void run_fleet_workload(const Options& options, Report& report);

}  // namespace ssdk::suite
