// The four benchmark workloads. Each one generates its inputs from the
// benchmark seed (set-up, timed separately), replays a fixed job repeatedly
// for the requested host seconds, checks its correctness oracles outside
// the timed phase, and in traced mode adds one span-instrumented
// repetition plus the layer probes.
//
// Why these four: `mixes` is the paper's own traffic on the serial replay
// path (no GC, fork, nn or pool); `gc_steady` puts FTL garbage collection,
// write arbitration and a fair scheduler on that path; `pipeline` is the
// paper's whole chain (Algorithm 1 labeling with forks on the pool,
// training, Algorithm 2 keeper); `fleet` is many devices with always-on
// telemetry, keepers with fork trials, and migration between devices. An
// optimisation of one layer therefore has a workload that exercises it and
// one that bypasses it.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/features.hpp"
#include "core/keeper.hpp"
#include "core/label_gen.hpp"
#include "core/learner.hpp"
#include "fleet/fleet.hpp"
#include "suite.hpp"
#include "trace/catalog.hpp"
#include "trace/mixer.hpp"
#include "trace/synthetic.hpp"

namespace ssdk::suite {

namespace {

constexpr int kSetupRepeats = 5;

enum class Mode { kReference, kTimed, kTraced };

/// Attempted and failed host requests: failures are device-full aborts,
/// uncorrectable reads, and requests that never completed.
struct RequestTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// One finished replay of `submitted` requests.
  void add(std::uint64_t submitted, const core::RunResult& r) {
    const auto& c = r.counters;
    const std::uint64_t completed =
        c.host_reads + c.host_writes + c.host_trims + c.host_flushes;
    attempted += submitted;
    failed += (submitted > completed ? submitted - completed : 0) +
              c.uncorrectable_reads + c.failed_requests;
  }
};

/// What one repetition of a workload's job produced.
struct RepResult {
  std::uint64_t fingerprint = 0;
  /// Host requests in the job's input traces (the requests_per_s base).
  std::uint64_t requests = 0;
  RequestTally tally;
};

struct Phase {
  std::size_t busy_threads = 1;
  /// Threads the calibration kernel runs on (see timed_phase).
  std::size_t calibration_threads = 1;
  RepResult reference;
  std::vector<double> wall;         ///< host seconds per timed repetition
  std::vector<double> cpu;          ///< process CPU seconds, likewise
  std::vector<double> calibration;  ///< kernel seconds around each one
  double median_wall() const { return median_of(wall); }
  double median_cpu() const { return median_of(cpu); }
  /// `work` per calibrated second of each repetition.
  std::vector<double> rates(double work) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < wall.size(); ++i) {
      out.push_back(work / calibrated(wall[i], calibration[i],
                                      calibration_threads));
    }
    return out;
  }
};

/// Run `setup` kSetupRepeats times, each between two calibrations on
/// `calibration_threads` threads, and report the median calibrated time as
/// setup_s; returns the inputs of the last run.
template <typename F>
auto timed_setup(Report& report, std::size_t calibration_threads,
                 F&& setup) {
  using Inputs = decltype(setup());
  std::optional<Inputs> inputs;
  std::vector<double> samples;
  double before = calibration_seconds(calibration_threads);
  for (int i = 0; i < kSetupRepeats; ++i) {
    inputs.reset();
    const double start = wall_seconds();
    inputs.emplace(setup());
    const double wall = wall_seconds() - start;
    const double after = calibration_seconds(calibration_threads);
    samples.push_back(
        calibrated(wall, (before + after) / 2.0, calibration_threads));
    before = after;
  }
  report.set_samples("setup_s", std::move(samples), "s");
  return std::move(*inputs);
}

/// One untimed reference repetition (its outputs give the simulated
/// metrics and are audited), then timed repetitions, each between two
/// calibrations, until the host-second budget is spent. Every repetition
/// must reproduce the reference fingerprint. The job keeps `busy_threads`
/// threads busy; the kernel runs on as many threads as the job's wall
/// time follows, `calibration_threads`.
template <typename Rep>
Phase timed_phase(const Options& options, Report& report,
                  std::size_t busy_threads, std::size_t calibration_threads,
                  Rep&& rep) {
  Phase phase;
  phase.busy_threads = busy_threads;
  phase.calibration_threads = calibration_threads;
  phase.reference = rep(Mode::kReference);
  report.count_requests(phase.reference.tally.attempted,
                        phase.reference.tally.failed);
  const std::size_t min_repeats = options.smoke ? 2 : 3;
  const double deadline = wall_seconds() + options.seconds;
  bool identical = true;
  double before = calibration_seconds(calibration_threads);
  while (phase.wall.size() < min_repeats || wall_seconds() < deadline) {
    const double cpu0 = cpu_seconds();
    const double wall0 = wall_seconds();
    const RepResult r = rep(Mode::kTimed);
    phase.wall.push_back(wall_seconds() - wall0);
    phase.cpu.push_back(cpu_seconds() - cpu0);
    const double after = calibration_seconds(calibration_threads);
    phase.calibration.push_back((before + after) / 2.0);
    before = after;
    identical = identical && r.fingerprint == phase.reference.fingerprint;
    report.count_requests(r.tally.attempted, r.tally.failed);
  }
  report.check("repeats_identical", identical);

  const double requests = static_cast<double>(phase.reference.requests);
  std::vector<double> cpu_per_request;
  std::vector<double> calibration_ms;
  for (std::size_t i = 0; i < phase.wall.size(); ++i) {
    cpu_per_request.push_back(
        calibrated(phase.cpu[i], phase.calibration[i], calibration_threads) /
        requests * 1e6);
    calibration_ms.push_back(phase.calibration[i] * 1e3);
  }
  report.set_samples("requests_per_s", phase.rates(requests), "1/s");
  report.set_samples("cpu_us_per_request", std::move(cpu_per_request), "us");
  report.set_samples("host_calibration_ms", std::move(calibration_ms), "ms");
  return phase;
}

/// The traced repetition: same job with the span log recording. Reports
/// per-layer self times, the tracing overhead against the untraced median
/// and the CPU utilization of the timed phase, and writes the span file.
template <typename Rep>
std::vector<SpanRecord> traced_phase(const Options& options, Report& report,
                                     const Phase& phase, Rep&& rep) {
  start_spans();
  const double wall0 = wall_seconds();
  const RepResult r = rep(Mode::kTraced);
  const double wall = wall_seconds() - wall0;
  std::vector<SpanRecord> spans = stop_spans();
  report.check("traced_equals_untraced",
               r.fingerprint == phase.reference.fingerprint);
  report.set("bench.trace_overhead_ratio", wall / phase.median_wall(),
             "ratio");
  report.set("util.cpu_utilization",
             phase.median_cpu() /
                 (phase.median_wall() *
                  static_cast<double>(phase.busy_threads)),
             "ratio");
  report.set_info("busy_threads", std::to_string(phase.busy_threads));
  for (const auto& [layer, seconds] : layer_self_times(spans)) {
    report.set_self_time(layer, seconds);
  }
  if (!options.trace_out.empty()) {
    write_span_file(options.trace_out, spans, report.workload());
  }
  return spans;
}

/// run_with_strategy decomposed into its layer calls, with a span around
/// each. `audit_failure` (non-null on the reference repetition) receives
/// the device audit's verdict.
core::RunResult replay(std::span<const sim::IoRequest> requests,
                       const core::Strategy& strategy,
                       std::span<const core::TenantProfile> profiles,
                       const core::RunConfig& config,
                       std::string* audit_failure) {
  const Span span("bench.replay");
  std::unique_ptr<ssd::Ssd> device;
  {
    const Span s("core.make_run_device");
    device = core::make_run_device(requests, strategy, profiles, config);
  }
  core::RunResult result;
  try {
    const Span s("ssd.run_to_completion");
    device->run_to_completion();
  } catch (const ftl::DeviceFullError& e) {
    return core::summarize_device_full(*device, e, "bench_suite");
  }
  {
    const Span s("core.summarize");
    result = core::summarize(*device);
  }
  if (audit_failure != nullptr && audit_failure->empty()) {
    try {
      device->check_invariants();
    } catch (const std::exception& e) {
      *audit_failure = e.what();
    }
  }
  return result;
}

/// Simulated end-to-end metrics: means over the job's replays.
void report_simulated(Report& report,
                      std::span<const core::RunResult> results) {
  double total = 0.0, p99r = 0.0, p99w = 0.0, jain = 0.0;
  for (const auto& r : results) {
    total += r.total_us;
    p99r += r.p99_read_us;
    p99w += r.p99_write_us;
    jain += r.jain_index;
  }
  const double n = static_cast<double>(results.size());
  report.set_simulated("sim_total_us", total / n, "sim_us");
  report.set_simulated("sim_p99_read_us", p99r / n, "sim_us");
  report.set_simulated("sim_p99_write_us", p99w / n, "sim_us");
  report.set_simulated("jain_index", jain / n, "ratio");
}

/// Simulated per-layer counters of the job, summed over its devices.
/// `device_ns` is the simulated time those devices cover, summed the same
/// way (the bus-utilization denominator, per channel).
void report_counters(Report& report,
                     std::span<const core::RunResult> results,
                     Duration device_ns, std::uint32_t channels) {
  sim::DeviceCounters sum;
  for (const auto& r : results) {
    const auto& c = r.counters;
    sum.page_ops += c.page_ops;
    sum.conflicts += c.conflicts;
    sum.read_wait_ns += c.read_wait_ns;
    sum.write_wait_ns += c.write_wait_ns;
    sum.read_ops_started += c.read_ops_started;
    sum.write_ops_started += c.write_ops_started;
    sum.bus_busy_ns += c.bus_busy_ns;
    sum.gc_migrations += c.gc_migrations;
    sum.erases += c.erases;
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto page_ops = static_cast<double>(sum.page_ops);
  report.set_simulated("ssd.page_ops", page_ops, "count");
  report.set_simulated(
      "ssd.conflict_ratio",
      ratio(static_cast<double>(sum.conflicts), page_ops), "ratio");
  report.set_simulated("ssd.read_wait_us", sum.avg_read_wait_us(), "sim_us");
  report.set_simulated("ssd.write_wait_us", sum.avg_write_wait_us(),
                       "sim_us");
  report.set_simulated("ssd.bus_util",
                       ratio(static_cast<double>(sum.bus_busy_ns),
                             static_cast<double>(device_ns) * channels),
                       "ratio");
  // Flash programs per host page program: write_ops_started counts host
  // pages and GC migrations alike.
  const auto gc = static_cast<double>(sum.gc_migrations);
  const double host_pages = static_cast<double>(sum.write_ops_started) - gc;
  report.set_simulated("ftl.write_amplification",
                       ratio(host_pages + gc, host_pages), "ratio");
  report.set_simulated("ftl.gc_migrations", gc, "count");
  report.set_simulated("ftl.erases", static_cast<double>(sum.erases),
                       "count");
}

std::vector<core::TenantProfile> profiles_of(
    std::span<const sim::IoRequest> requests) {
  return core::features_of(requests).profiles(4);
}

Duration span_ns(std::span<const sim::IoRequest> requests) {
  return requests.empty() ? 0
                          : requests.back().arrival - requests.front().arrival;
}

/// Seed of one generated input stream, derived from the benchmark seed.
std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t salt) {
  return seed * 1'000'003ULL + salt;
}

}  // namespace

// ---------------------------------------------------------------------------
// mixes: Table IV Mixes 1-4 under Shared, 2:2:2:2 and the paper's Table V
// pick, FIFO, single thread. Starts on an empty device.

void run_mixes(const Options& options, Report& report) {
  const double duration_s = options.smoke ? 0.2 : 10.0;
  const auto space = core::StrategySpace::for_tenants(4);
  static const char* kTableVPick[] = {"Shared", "1:7", "5:1:1:1", "4:2:1:1"};
  const core::RunConfig config;  // FIFO, unlimited admission window

  struct Mix {
    std::vector<sim::IoRequest> requests;
    std::vector<core::TenantProfile> profiles;
    std::vector<core::Strategy> strategies;
  };
  std::vector<double> generate_s;
  const auto mixes = timed_setup(report, 1, [&] {
    std::vector<Mix> out;
    double generate = 0.0;
    for (std::uint32_t m = 1; m <= 4; ++m) {
      Mix mix;
      const double start = wall_seconds();
      mix.requests = trace::build_mix(m, duration_s, 0,
                                      derived_seed(options.seed, m));
      generate += wall_seconds() - start;
      mix.profiles = profiles_of(mix.requests);
      mix.strategies = {space.shared(), space.isolated(),
                        space.at(space.index_of(kTableVPick[m - 1]))};
      out.push_back(std::move(mix));
    }
    generate_s.push_back(generate);
    return out;
  });
  report.set_samples("trace.generate_s", generate_s, "s");

  std::vector<core::RunResult> reference;
  std::string audit_failure;
  const auto rep = [&](Mode mode) {
    RepResult out;
    Fingerprint fp;
    for (const Mix& mix : mixes) {
      for (const core::Strategy& strategy : mix.strategies) {
        const bool ref = mode == Mode::kReference;
        core::RunResult r = replay(mix.requests, strategy, mix.profiles,
                                   config, ref ? &audit_failure : nullptr);
        fp.mix(r);
        out.requests += mix.requests.size();
        out.tally.add(mix.requests.size(), r);
        if (ref) reference.push_back(std::move(r));
      }
    }
    out.fingerprint = fp.value();
    return out;
  };
  const Phase phase = timed_phase(options, report, 1, 1, rep);
  report.check("device_invariants", audit_failure.empty(), audit_failure);

  // Fairness needs each tenant's isolated baseline (outside the timed
  // phase; the baselines depend on the mix only).
  std::size_t i = 0;
  Duration elapsed = 0;
  for (const Mix& mix : mixes) {
    const auto baselines =
        core::isolated_baselines(mix.requests, mix.profiles, config);
    for (std::size_t s = 0; s < mix.strategies.size(); ++s, ++i) {
      core::apply_fairness(reference[i], baselines);
      elapsed += span_ns(mix.requests);
    }
  }
  report_simulated(report, reference);

  if (options.traced) {
    traced_phase(options, report, phase, rep);
    report_counters(report, reference, elapsed,
                    config.ssd.geometry.channels);
    // Probe stream: Mix 2 under 2:2:2:2, the heaviest mix on the most
    // contended strategy.
    const Mix& probe = mixes[1];
    run_layer_probes({probe.requests, config, probe.strategies[1],
                      probe.profiles, nullptr},
                     options, report);
  }
}

// ---------------------------------------------------------------------------
// gc_steady: three writers and one reader on a small device whose
// footprint keeps GC running; WFQ admission with window 8. Statistics
// start after the GC warm-up (warmup_fraction 0.25).

void run_gc_steady(const Options& options, Report& report) {
  const double duration_s = options.smoke ? 4.0 : 120.0;
  // Below ~6000 rps per tenant: faster replays abort inside GC (a known
  // simulator limit), and the benchmark needs workloads on which nothing
  // fails.
  const double rate_rps = 2'000.0;

  core::RunConfig config;
  config.ssd.geometry = sim::Geometry::small();
  config.ssd.geometry.blocks_per_plane = 64;
  config.ssd.geometry.pages_per_block = 64;
  config.ssd.ftl.gc_trigger_free_blocks = 4;
  config.ssd.ftl.gc_target_free_blocks = 6;
  config.ssd.sched.policy = sched::Policy::kWfq;
  config.ssd.sched.max_outstanding_requests = 8;
  config.ssd.sched.shares.push_back({.tenant = 3, .weight = 4});
  config.warmup_fraction = 0.25;
  // Footprint: 40% of capacity, split evenly between the four tenants.
  const std::uint64_t space_pages =
      config.ssd.geometry.total_pages() * 2 / 5 / 4;

  struct Input {
    std::vector<sim::IoRequest> requests;
    std::vector<core::TenantProfile> profiles;
  };
  std::vector<double> generate_s;
  const Input input = timed_setup(report, 1, [&] {
    const double start = wall_seconds();
    std::vector<trace::Workload> tenants;
    for (std::uint32_t t = 0; t < 4; ++t) {
      trace::SyntheticSpec spec;
      spec.name = t < 3 ? "writer" : "reader";
      spec.write_fraction = t < 3 ? 0.9 : 0.1;
      spec.intensity_rps = rate_rps;
      spec.request_count = static_cast<std::uint64_t>(rate_rps * duration_s);
      spec.mean_request_pages = 2.0;
      spec.address_space_pages = space_pages;
      spec.seed = derived_seed(options.seed, 100 + t);
      tenants.push_back(trace::generate_synthetic(spec));
    }
    Input in;
    in.requests = trace::mix_workloads(tenants);
    generate_s.push_back(wall_seconds() - start);
    in.profiles = profiles_of(in.requests);
    return in;
  });
  report.set_samples("trace.generate_s", generate_s, "s");

  const core::Strategy shared{};
  std::vector<core::RunResult> reference;
  std::string audit_failure;
  const auto rep = [&](Mode mode) {
    const bool ref = mode == Mode::kReference;
    core::RunResult r = replay(input.requests, shared, input.profiles,
                               config, ref ? &audit_failure : nullptr);
    RepResult out;
    Fingerprint fp;
    fp.mix(r);
    out.fingerprint = fp.value();
    out.requests = input.requests.size();
    out.tally.add(input.requests.size(), r);
    if (ref) reference.push_back(std::move(r));
    return out;
  };
  const Phase phase = timed_phase(options, report, 1, 1, rep);
  report.check("device_invariants", audit_failure.empty(), audit_failure);

  core::apply_fairness(
      reference.front(),
      core::isolated_baselines(input.requests, input.profiles, config));
  report_simulated(report, reference);

  if (options.traced) {
    traced_phase(options, report, phase, rep);
    report_counters(report, reference, span_ns(input.requests),
                    config.ssd.geometry.channels);
    run_layer_probes(
        {input.requests, config, shared, input.profiles, nullptr}, options,
        report);
  }
}

// ---------------------------------------------------------------------------
// pipeline: Algorithm 1 (label synthesized workloads with 42-way sweeps,
// fork at 0.7 from a shared prefix, on the pool) -> train the 9-64-42
// network -> Algorithm 2 (keeper) on Mixes 1-4.

namespace {

/// label_workload's shared-prefix fork sweep, spelled out call by call so
/// every layer gets a span. The traced repetition's fingerprint must equal
/// the untraced one, so this must label exactly like label_workload.
core::LabeledSample decomposed_label(std::span<const sim::IoRequest> requests,
                                     const core::StrategySpace& space,
                                     const core::LabelGenConfig& config) {
  const Span span("bench.label_workload");
  core::LabeledSample sample;
  {
    const Span s("core.features_of");
    sample.features = core::features_of(requests, config.features);
  }
  const auto profiles = sample.features.profiles(space.tenants());
  const auto switch_at = static_cast<std::uint64_t>(
      std::min(config.fork_point, 1.0) * static_cast<double>(requests.size()));
  std::unique_ptr<ssd::Ssd> prefix;
  {
    const Span s("core.make_run_device");
    prefix = core::make_run_device(requests, config.base_strategy, profiles,
                                   config.run);
  }
  {
    const Span s("ssd.run_until_arrival");
    prefix->run_until_arrival(switch_at);
  }
  sample.strategy_total_us.assign(space.size(), 0.0);
  for (std::size_t i = 0; i < space.size(); ++i) {
    std::unique_ptr<ssd::Ssd> device;
    {
      const Span s("snapshot.fork");
      device = prefix->fork();
    }
    {
      const Span s("core.configure_ssd");
      core::configure_ssd(*device, space.at(i), profiles,
                          config.run.hybrid_page_allocation);
    }
    {
      // A device-full abort scores the partial run here but makes
      // label_workload fall back to cold runs, so it shows up as a
      // traced/untraced mismatch.
      const Span s("ssd.run_to_completion");
      try {
        device->run_to_completion();
      } catch (const ftl::DeviceFullError&) {
      }
    }
    const Span s("core.summarize_total_us");
    sample.strategy_total_us[i] = core::summarize_total_us(*device);
  }
  sample.strategy_score = sample.strategy_total_us;
  sample.label = static_cast<std::uint32_t>(
      std::min_element(sample.strategy_total_us.begin(),
                       sample.strategy_total_us.end()) -
      sample.strategy_total_us.begin());
  return sample;
}

bool same_samples(const core::LabeledSample& a, const core::LabeledSample& b) {
  return a.label == b.label && a.strategy_total_us == b.strategy_total_us;
}

}  // namespace

void run_pipeline(const Options& options, Report& report) {
  const auto space = core::StrategySpace::for_tenants(4);
  core::DatasetGenConfig gen;
  gen.workloads = options.smoke ? 12 : 128;
  gen.workload_duration_s = 0.35;
  gen.seed = derived_seed(options.seed, 200);
  gen.label.fork_point = 0.7;
  gen.label.shared_prefix_fork = true;
  const double mix_duration_s = 0.6;
  core::LearnerConfig learner;  // Adam, logistic, 200 iterations
  if (options.smoke) learner.max_iterations = 20;
  const core::KeeperConfig keeper;  // one-shot Algorithm 2, T = 200 ms
  const ssd::SsdOptions device_options;
  ThreadPool pool(options.pool_workers);

  struct Input {
    std::vector<std::vector<sim::IoRequest>> workloads;
    std::vector<std::vector<sim::IoRequest>> mixes;
  };
  std::vector<double> generate_s;
  const Input input = timed_setup(report, 1, [&] {
    const double start = wall_seconds();
    Input in;
    for (std::uint64_t w = 0; w < gen.workloads; ++w) {
      in.workloads.push_back(core::synthesize_mix(gen, w));
    }
    for (std::uint32_t m = 1; m <= 4; ++m) {
      in.mixes.push_back(trace::build_mix(
          m, mix_duration_s, 0, derived_seed(options.seed, 300 + m)));
    }
    generate_s.push_back(wall_seconds() - start);
    return in;
  });
  report.set_samples("trace.generate_s", generate_s, "s");

  std::vector<core::LabeledSample> ref_samples;
  std::vector<core::KeeperRunResult> ref_keeper;
  std::optional<core::LearnedModel> ref_model;
  std::vector<double> train_s;
  const auto rep = [&](Mode mode) {
    // Algorithm 1: one task per workload, each sweep nested on the pool.
    std::vector<core::LabeledSample> samples(input.workloads.size());
    if (mode == Mode::kTraced) {
      parallel_for(pool, samples.size(), [&](std::size_t i) {
        samples[i] = decomposed_label(input.workloads[i], space, gen.label);
      });
    } else {
      parallel_for(pool, samples.size(), [&](std::size_t i) {
        samples[i] =
            core::label_workload(input.workloads[i], space, gen.label, &pool);
      });
    }
    nn::Dataset dataset;
    for (const auto& sample : samples) {
      dataset.add(sample.features.to_vector(), sample.label);
    }
    const double train_start = wall_seconds();
    auto model = [&] {
      const Span s("core.train_strategy_learner");
      return core::train_strategy_learner(dataset, space, learner);
    }();
    train_s.push_back(wall_seconds() - train_start);

    // Algorithm 2 on Mixes 1-4.
    std::vector<core::KeeperRunResult> runs;
    for (const auto& mix : input.mixes) {
      const Span s("core.run_with_keeper");
      runs.push_back(
          core::run_with_keeper(mix, model.allocator, keeper, device_options));
    }

    RepResult out;
    Fingerprint fp;
    for (const auto& sample : samples) {
      fp.mix(static_cast<std::uint64_t>(sample.label));
      for (const double us : sample.strategy_total_us) fp.mix(us);
    }
    for (const auto& w : input.workloads) out.requests += w.size();
    fp.mix(model.history.final_accuracy);
    for (std::size_t m = 0; m < runs.size(); ++m) {
      fp.mix(runs[m].run);
      for (const std::uint32_t part : runs[m].strategy.parts) {
        fp.mix(static_cast<std::uint64_t>(part));
      }
      out.requests += input.mixes[m].size();
      out.tally.add(input.mixes[m].size(), runs[m].run);
    }
    out.fingerprint = fp.value();
    if (mode == Mode::kReference) {
      ref_samples = std::move(samples);
      ref_keeper = std::move(runs);
      ref_model.emplace(std::move(model));
    }
    return out;
  };
  // Labeling keeps every pool thread busy, so its wall time follows all
  // of them.
  const Phase phase = timed_phase(options, report, pool.size() + 1,
                                  pool.size() + 1, rep);
  report.set_samples("nn.train_s", train_s, "s");
  report.set_samples("labels_per_s",
                     phase.rates(static_cast<double>(gen.workloads)), "1/s");

  // Paper-level outcomes, computed outside the timed phase.
  double gain = 0.0;
  int oracle_match = 0;
  std::vector<core::RunResult> keeper_results;
  for (std::size_t m = 0; m < input.mixes.size(); ++m) {
    const auto& mix = input.mixes[m];
    const auto profiles = profiles_of(mix);
    core::RunConfig run;
    run.ssd = device_options;
    const core::RunResult shared =
        core::run_with_strategy(mix, space.shared(), profiles, run);
    core::RunResult keeper_run = ref_keeper[m].run;
    gain += (shared.total_us - keeper_run.total_us) / shared.total_us * 100.0;
    const auto oracle =
        core::label_workload(mix, space, core::LabelGenConfig{}, &pool);
    if (space.at(oracle.label) == ref_keeper[m].strategy) ++oracle_match;
    core::apply_fairness(keeper_run,
                         core::isolated_baselines(mix, profiles, run));
    keeper_results.push_back(std::move(keeper_run));
  }
  const double accuracy = ref_model->history.final_accuracy;
  report.set_simulated("keeper_gain_pct", gain / 4.0, "%");
  report.set_simulated("oracle_match", oracle_match, "count");
  report.set_simulated("model_accuracy", accuracy, "ratio");
  report_simulated(report, keeper_results);
  // The network must learn (0.82-0.97 over seeds 1-10; chance is 1/42).
  // The keeper's gain is not an oracle: an unlucky seed legitimately
  // trains a model that loses to Shared on one mix.
  report.check("model_accuracy_above_half", accuracy > 0.5);

  // The fork sweep must equal the cold sweep it replaces (2 workloads).
  core::LabelGenConfig cold = gen.label;
  cold.shared_prefix_fork = false;
  bool cold_equal = true;
  for (std::size_t w = 0; w < std::min<std::size_t>(2, ref_samples.size());
       ++w) {
    cold_equal = cold_equal &&
                 same_samples(core::label_workload(input.workloads[w], space,
                                                   cold, &pool),
                              ref_samples[w]);
  }
  report.check("cold_sweep_equals_fork_sweep", cold_equal);

  if (options.traced) {
    const auto spans = traced_phase(options, report, phase, rep);
    double prefix = 0.0, sweep = 0.0;
    for (const auto& s : spans) {
      const std::string_view name(s.name);
      if (name == "ssd.run_until_arrival") prefix += s.end_s - s.start_s;
      if (name == "bench.label_workload") sweep += s.end_s - s.start_s;
    }
    report.set("core.label_prefix_share", sweep > 0 ? prefix / sweep : 0.0,
               "ratio");
    report_counters(report, keeper_results, [&] {
      Duration d = 0;
      for (const auto& mix : input.mixes) d += span_ns(mix);
      return d;
    }(), device_options.geometry.channels);
    const auto& probe = input.mixes[1];
    core::RunConfig run;
    run.ssd = device_options;
    run_layer_probes({probe, run, ref_keeper[1].strategy,
                      ref_keeper[1].features.profiles(4),
                      &ref_model->allocator},
                     options, report);
  }
}

// ---------------------------------------------------------------------------
// fleet: 32 devices, 96 tenants placed round-robin (the heavy writers
// collide, so migration trials fire), 8 epochs of 50 ms, a keeper with
// fork-measured what-if on every device, isolated baselines on.

void run_fleet_workload(const Options& options, Report& report) {
  fleet::FleetConfig config;
  config.devices = options.smoke ? 4 : 32;
  config.epochs = options.smoke ? 2 : 8;
  config.epoch_ns = 50 * kMillisecond;
  config.seed = derived_seed(options.seed, 400);
  config.keeper.what_if_top_k = 3;
  config.keeper.collect_window_ns = 100 * kMillisecond;
  config.isolated_baseline = true;
  const std::uint32_t tenants = config.devices * 3;
  const auto space = core::StrategySpace::for_tenants(4);
  ThreadPool pool(options.pool_workers);
  const fleet::RoundRobinPlacement placement;

  struct Input {
    std::vector<fleet::TenantSpec> specs;
    std::optional<core::ChannelAllocator> allocator;
    /// Device 0's traffic over every epoch, merged by arrival: the layer
    /// probes' stream (round-robin puts tenants 0, D and 2D there).
    std::vector<sim::IoRequest> device0;
  };
  std::vector<double> generate_s;
  const Input input = timed_setup(report, pool.size() + 1, [&] {
    Input in;
    const double start = wall_seconds();
    in.specs =
        fleet::make_tenant_specs(tenants, config.devices, config.epoch_ns);
    // Every tenant's traffic, as run_fleet will generate it per epoch.
    for (const auto& spec : in.specs) {
      for (std::uint32_t e = 0; e < config.epochs; ++e) {
        const auto records =
            fleet::epoch_records(spec, config.seed, e, config.epoch_ns);
        if (spec.id % config.devices != 0) continue;
        for (const auto& r : records) {
          in.device0.push_back({.tenant = spec.id / config.devices,
                                .type = r.type,
                                .lpn = r.lpn,
                                .page_count = r.pages,
                                .arrival = r.arrival});
        }
      }
    }
    std::stable_sort(in.device0.begin(), in.device0.end(),
                     [](const auto& a, const auto& b) {
                       return a.arrival < b.arrival;
                     });
    for (std::size_t i = 0; i < in.device0.size(); ++i) in.device0[i].id = i;
    generate_s.push_back(wall_seconds() - start);
    // The keepers' allocator is trained during set-up.
    core::DatasetGenConfig gen;
    gen.workloads = options.smoke ? 8 : 64;
    gen.workload_duration_s = 0.2;
    gen.seed = derived_seed(options.seed, 401);
    gen.label.fork_point = 0.7;
    gen.label.shared_prefix_fork = true;
    const auto dataset = core::generate_dataset(space, gen, pool);
    core::LearnerConfig learner;
    if (options.smoke) learner.max_iterations = 20;
    in.allocator.emplace(
        core::train_strategy_learner(dataset.data, space, learner).allocator);
    return in;
  });
  report.set_samples("trace.generate_s", generate_s, "s");
  config.allocator = &*input.allocator;

  std::optional<fleet::FleetResult> reference;
  const auto rep = [&](Mode mode) {
    fleet::FleetResult result = [&] {
      const Span s("fleet.run_fleet");
      return fleet::run_fleet(config, input.specs, placement, pool);
    }();
    RepResult out;
    out.fingerprint = result.fingerprint();
    out.requests = result.total_requests;
    for (const auto& d : result.device_results) {
      const auto& c = d.run.counters;
      // Each device's attempted requests: its completions plus failures.
      out.tally.attempted += c.host_reads + c.host_writes + c.host_trims +
                             c.failed_requests;
      out.tally.failed += c.failed_requests + c.uncorrectable_reads +
                          (d.run.device_full ? 1 : 0);
    }
    if (mode == Mode::kReference) reference.emplace(std::move(result));
    return out;
  };
  // The wall time follows one thread: the round-robin placement overloads
  // device 0, whose epoch sets each epoch's length, and consolidation
  // between epochs is serial.
  const Phase phase =
      timed_phase(options, report, pool.size() + 1, 1, rep);
  report.set_samples("device_epochs_per_s",
                     phase.rates(config.devices * config.epochs), "1/s");

  // Bit-identical at one pool worker.
  const double serial_start = wall_seconds();
  const auto serial = fleet::run_fleet(config, input.specs, placement, 1);
  const double serial_s = wall_seconds() - serial_start;
  report.check("fleet_pool_invariant",
               serial.fingerprint() == reference->fingerprint());

  report.set_simulated("sim_total_us", reference->aggregate_total_us, "sim_us");
  report.set_simulated("sim_p99_read_us", reference->aggregate_p99_read_us,
                       "sim_us");
  report.set_simulated("sim_p99_write_us", reference->aggregate_p99_write_us,
                       "sim_us");
  report.set_simulated("jain_index", reference->jain_index, "ratio");

  if (options.traced) {
    traced_phase(options, report, phase, rep);
    report.set("fleet.parallel_speedup", serial_s / phase.median_wall(),
               "ratio");
    std::size_t trials = 0;
    for (const auto& m : reference->migrations) trials += m.trials.size();
    report.set_simulated("fleet.migrations",
                         static_cast<double>(reference->migrations.size()),
                         "count");
    report.set_simulated("fleet.trials", static_cast<double>(trials),
                         "count");
    std::vector<core::RunResult> runs;
    for (const auto& d : reference->device_results) runs.push_back(d.run);
    report_counters(report, runs,
                    static_cast<Duration>(config.devices) * config.epochs *
                        config.epoch_ns,
                    config.ssd.geometry.channels);

    core::RunConfig run;
    run.ssd = config.ssd;
    run_layer_probes({input.device0, run, core::Strategy{},
                      profiles_of(input.device0), &*input.allocator},
                     options, report);
  }
}

}  // namespace ssdk::suite
