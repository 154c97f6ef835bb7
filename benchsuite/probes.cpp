// Layer probes: each one drives a single layer through its public API with
// inputs taken from the workload (its request stream, device options,
// strategy and allocator), so a per-layer number moves when that layer's
// cost on this workload moves. Host timings are medians of a few repeats.
#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/features.hpp"
#include "core/keeper.hpp"
#include "fleet/migration.hpp"
#include "ftl/ftl.hpp"
#include "nn/activations.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "snapshot/device_snapshot.hpp"
#include "suite.hpp"
#include "telemetry/rollup.hpp"
#include "telemetry/tracer.hpp"

namespace ssdk::suite {

namespace {

struct ProbeContext {
  const ProbeInput& in;
  Report& report;
  int repeats;
};

std::uint64_t fingerprint_of(const core::RunResult& r) {
  Fingerprint fp;
  fp.mix(r);
  return fp.value();
}

/// Full replay of the probe stream, split at the layer boundaries the
/// runner crosses. Returns the median run_to_completion seconds.
double probe_replay(const ProbeContext& ctx) {
  const ProbeInput& in = ctx.in;
  std::vector<double> make_s, run_s, summarize_s;
  std::uint64_t allocs = 0;
  std::uint64_t page_ops = 0;
  for (int r = 0; r < ctx.repeats; ++r) {
    double t = wall_seconds();
    auto device =
        core::make_run_device(in.stream, in.strategy, in.profiles, in.run);
    make_s.push_back(wall_seconds() - t);
    const std::uint64_t a0 = allocations();
    t = wall_seconds();
    device->run_to_completion();
    run_s.push_back(wall_seconds() - t);
    allocs = allocations() - a0;
    t = wall_seconds();
    const core::RunResult result = core::summarize(*device);
    summarize_s.push_back(wall_seconds() - t);
    page_ops = result.counters.page_ops;
  }
  const double run_median = median_of(run_s);
  ctx.report.set_samples("core.make_run_device_s", make_s, "s");
  ctx.report.set_samples("ssd.run_s", run_s, "s");
  ctx.report.set_samples("core.summarize_s", summarize_s, "s");
  ctx.report.set("ssd.host_ns_per_page_op",
                 run_median / static_cast<double>(page_ops) * 1e9, "ns");
  ctx.report.set("ssd.allocs_per_request",
                 static_cast<double>(allocs) /
                     static_cast<double>(in.stream.size()),
                 "count");
  return run_median;
}

/// fork(), save_device and load_device of a device stopped at 70% of the
/// stream, then one fork-measured migration trial on the drained device.
void probe_snapshot(const ProbeContext& ctx) {
  const ProbeInput& in = ctx.in;
  // FIFO admission: the WFQ/DRR loader's plausibility check assumes 44
  // bytes per tenant record while an empty-queue record is 36, so a
  // fair-scheduler device whose SCHD section ends the payload fails to
  // load. The device state that dominates the copy (FTL, queues, metrics)
  // is the same either way.
  core::RunConfig run = in.run;
  run.ssd.sched = {};
  auto device = core::make_run_device(in.stream, in.strategy, in.profiles, run);
  device->run_until_arrival(in.stream.size() * 7 / 10);

  std::vector<double> fork_ms, save_ms, load_ms;
  std::uint64_t fork_allocs = 0;
  std::unique_ptr<ssd::Ssd> fork;
  std::unique_ptr<ssd::Ssd> loaded;
  std::vector<char> image;
  for (int r = 0; r < ctx.repeats + 2; ++r) {
    fork.reset();
    loaded.reset();
    image = {};
    const std::uint64_t a0 = allocations();
    double t = wall_seconds();
    fork = device->fork();
    fork_ms.push_back((wall_seconds() - t) * 1e3);
    fork_allocs = allocations() - a0;
    t = wall_seconds();
    image = snapshot::save_device(*device);
    save_ms.push_back((wall_seconds() - t) * 1e3);
    t = wall_seconds();
    loaded = snapshot::load_device(image);
    load_ms.push_back((wall_seconds() - t) * 1e3);
  }
  ctx.report.set_samples("snapshot.fork_ms", fork_ms, "ms");
  ctx.report.set_samples("snapshot.save_ms", save_ms, "ms");
  ctx.report.set_samples("snapshot.load_ms", load_ms, "ms");
  ctx.report.set("snapshot.state_bytes", static_cast<double>(image.size()),
                 "bytes");
  ctx.report.set("snapshot.allocs_per_fork", static_cast<double>(fork_allocs),
                 "count");
  ctx.report.check("snapshot_save_load_save_identical",
                   snapshot::save_device(*loaded) == image);

  // A fork and a restored copy must finish exactly like the original.
  fork->run_to_completion();
  loaded->run_to_completion();
  device->run_to_completion();
  const std::uint64_t expected = fingerprint_of(core::summarize(*device));
  ctx.report.check("fork_equals_continue",
                   fingerprint_of(core::summarize(*fork)) == expected);
  ctx.report.check("restore_equals_continue",
                   fingerprint_of(core::summarize(*loaded)) == expected);

  // Migration trial: the stream's head replayed next to nothing on the
  // drained device, as the fleet tier scores a destination.
  std::vector<sim::IoRequest> trial(
      in.stream.begin(),
      in.stream.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              1500, in.stream.size())));
  const SimTime shift = device->now() - trial.front().arrival;
  for (std::size_t i = 0; i < trial.size(); ++i) {
    trial[i].id = i;
    trial[i].arrival += shift;
  }
  std::vector<double> trial_ms;
  for (int r = 0; r < ctx.repeats + 2; ++r) {
    const double t = wall_seconds();
    fleet::score_placement(*device, trial);
    trial_ms.push_back((wall_seconds() - t) * 1e3);
  }
  ctx.report.set_samples("fleet.trial_ms", trial_ms, "ms");
}

/// The calendar event queue driven like the device drives it: the next
/// arrival is pushed when the previous one pops, and each arrival pushes
/// one completion per page at its Table I service time.
void probe_event_queue(const ProbeContext& ctx) {
  const auto& stream = ctx.in.stream;
  const auto& g = ctx.in.run.ssd.geometry;
  const auto& timing = ctx.in.run.ssd.timing;
  const Duration read_ns = timing.read_service_ns(g);
  const Duration write_ns = timing.write_service_ns(g);
  const Duration xfer_ns = timing.page_transfer_ns(g);
  std::vector<double> ns_per_op;
  for (int r = 0; r < ctx.repeats; ++r) {
    sim::EventQueue queue;
    queue.reserve(1024);
    std::size_t next = 0;
    std::uint64_t ops = 0;
    const double t = wall_seconds();
    queue.push(stream[next].arrival, sim::EventKind::kArrival, next);
    ++next;
    ++ops;
    while (!queue.empty()) {
      const sim::Event e = queue.pop();
      ++ops;
      if (e.kind != sim::EventKind::kArrival) continue;
      const sim::IoRequest& req = stream[e.a];
      const Duration service =
          req.type == sim::OpType::kWrite ? write_ns : read_ns;
      for (std::uint32_t p = 0; p < req.page_count; ++p) {
        queue.push(e.time + service + p * xfer_ns,
                   sim::EventKind::kFlashDone, e.a, p);
        ++ops;
      }
      if (next < stream.size()) {
        queue.push(stream[next].arrival, sim::EventKind::kArrival, next);
        ++next;
        ++ops;
      }
    }
    ns_per_op.push_back((wall_seconds() - t) * 1e9 /
                        static_cast<double>(ops));
  }
  ctx.report.set_samples("sim.event_queue_ns_per_op", ns_per_op, "ns");
}

/// Backlog model for dynamic placement: every placed page keeps its
/// channel bus busy for one transfer and its chip for one program, and the
/// backlog drains with the stream's arrival clock.
class BacklogView final : public ftl::LoadView {
 public:
  BacklogView(const sim::Geometry& g, const sim::Timing& timing)
      : geometry_(g),
        xfer_ns_(timing.page_transfer_ns(g)),
        program_ns_(timing.program_ns),
        channel_free_(g.channels, 0),
        chip_free_(g.total_chips(), 0) {}

  void advance(SimTime now) { now_ = now; }
  void charge(sim::Ppn ppn) {
    const sim::PhysAddr a = geometry_.decode(ppn);
    SimTime& ch = channel_free_[a.channel];
    ch = std::max(ch, now_) + xfer_ns_;
    SimTime& chip = chip_free_[geometry_.chip_id(a.channel, a.chip)];
    chip = std::max(chip, now_) + xfer_ns_ + program_ns_;
  }

  Duration channel_backlog(std::uint32_t channel) const override {
    return backlog(channel_free_[channel]);
  }
  Duration chip_backlog(std::uint32_t global_chip) const override {
    return backlog(chip_free_[global_chip]);
  }

 private:
  Duration backlog(SimTime free_at) const {
    return free_at > now_ ? free_at - now_ : 0;
  }

  sim::Geometry geometry_;
  Duration xfer_ns_;
  Duration program_ns_;
  std::vector<SimTime> channel_free_;
  std::vector<SimTime> chip_free_;
  SimTime now_ = 0;
};

/// Ftl::allocate_write on the stream's write pages (static and dynamic
/// placement, at most half the device so no GC is needed), then
/// select_victim over every plane of the filled FTL.
void probe_ftl(const ProbeContext& ctx) {
  const ProbeInput& in = ctx.in;
  const sim::Geometry& g = in.run.ssd.geometry;
  const std::uint64_t cap = g.total_pages() / 2;
  const auto allocate_ns = [&](ftl::AllocMode mode, ftl::Ftl& f) {
    BacklogView view(g, in.run.ssd.timing);
    for (sim::TenantId t = 0; t < 4; ++t) f.set_tenant_alloc_mode(t, mode);
    std::uint64_t placed = 0;
    const double t = wall_seconds();
    for (const sim::IoRequest& req : in.stream) {
      if (req.type != sim::OpType::kWrite) continue;
      if (placed + req.page_count > cap) break;
      view.advance(req.arrival);
      for (std::uint32_t p = 0; p < req.page_count; ++p) {
        view.charge(f.allocate_write(req.tenant, req.lpn + p, view));
      }
      placed += req.page_count;
    }
    return (wall_seconds() - t) * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(placed, 1));
  };
  std::vector<double> static_ns, dynamic_ns, victim_ns;
  std::uint64_t found = 0;
  for (int r = 0; r < ctx.repeats; ++r) {
    ftl::Ftl dynamic_ftl(g, in.run.ssd.ftl);
    dynamic_ns.push_back(allocate_ns(ftl::AllocMode::kDynamic, dynamic_ftl));
    ftl::Ftl static_ftl(g, in.run.ssd.ftl);
    static_ns.push_back(allocate_ns(ftl::AllocMode::kStatic, static_ftl));
    const int passes = 8;
    const double t = wall_seconds();
    for (int pass = 0; pass < passes; ++pass) {
      for (std::uint64_t plane = 0; plane < g.total_planes(); ++plane) {
        found += static_ftl.select_victim(plane).has_value() ? 1 : 0;
      }
    }
    victim_ns.push_back((wall_seconds() - t) * 1e9 /
                        static_cast<double>(passes * g.total_planes()));
  }
  ctx.report.set_info("ftl.victims_found", std::to_string(found));
  ctx.report.set_samples("ftl.allocate_static_ns", static_ns, "ns");
  ctx.report.set_samples("ftl.allocate_dynamic_ns", dynamic_ns, "ns");
  ctx.report.set_samples("ftl.select_victim_ns", victim_ns, "ns");
}

/// WFQ admission (window 8, read-dominated tenants weighted 4) on the
/// stream: a 64-request backlog builds first, then each arrival completes
/// the oldest admitted request, so every pick chooses among queued tenants.
void probe_scheduler(const ProbeContext& ctx) {
  const ProbeInput& in = ctx.in;
  sched::SchedConfig config;
  config.policy = sched::Policy::kWfq;
  config.max_outstanding_requests = 8;
  for (const auto& p : in.profiles) {
    config.shares.push_back(
        {.tenant = p.id, .weight = p.read_dominated ? 4u : 1u});
  }
  std::vector<double> ns;
  for (int r = 0; r < ctx.repeats; ++r) {
    auto scheduler = sched::make_scheduler(config);
    std::deque<sim::TenantId> admitted;
    sched::Grant grant;
    const auto admit = [&] {
      while (scheduler->pick(grant)) admitted.push_back(grant.tenant);
    };
    const double t = wall_seconds();
    for (std::size_t i = 0; i < in.stream.size(); ++i) {
      const sim::IoRequest& req = in.stream[i];
      scheduler->enqueue(i, req.tenant, req.page_count, req.arrival);
      if (i >= 64 && !admitted.empty()) {
        scheduler->on_complete(admitted.front());
        admitted.pop_front();
      }
      admit();
    }
    while (!admitted.empty()) {
      scheduler->on_complete(admitted.front());
      admitted.pop_front();
      admit();
    }
    ns.push_back((wall_seconds() - t) * 1e9 /
                 static_cast<double>(in.stream.size()));
  }
  ctx.report.set_samples("sched.pick_ns", ns, "ns");
}

/// The replay with a lifecycle tracer attached versus without, and the
/// rollup the fleet tier builds from such a trace.
void probe_telemetry(const ProbeContext& ctx, double untraced_run_s) {
  const ProbeInput& in = ctx.in;
  telemetry::Tracer tracer;
  core::RunConfig run = in.run;
  run.tracer = &tracer;
  std::vector<double> traced_s, rollup_ms;
  telemetry::RollupSummary summary;
  for (int r = 0; r < ctx.repeats; ++r) {
    tracer.clear();
    auto device =
        core::make_run_device(in.stream, in.strategy, in.profiles, run);
    double t = wall_seconds();
    device->run_to_completion();
    traced_s.push_back(wall_seconds() - t);
    t = wall_seconds();
    telemetry::RollupConfig rollup;
    rollup.channels = in.run.ssd.geometry.channels;
    const auto events = tracer.events();
    summary = telemetry::summarize_rollup(
        telemetry::build_rollup(events, rollup));
    rollup_ms.push_back((wall_seconds() - t) * 1e3);
  }
  ctx.report.set("telemetry.overhead_ratio",
                 median_of(traced_s) / untraced_run_s, "ratio");
  ctx.report.set_samples("telemetry.rollup_ms", rollup_ms, "ms");
  ctx.report.set_simulated("telemetry.dropped_events",
                           static_cast<double>(tracer.dropped()), "count");
  ctx.report.set_simulated(
      "sched.wait_us",
      summary.sched_waits ? to_us(summary.sched_wait_ns) /
                                static_cast<double>(summary.sched_waits)
                          : 0.0,
      "sim_us");
}

/// features_of on 64 windows of the stream, and the allocator's forward
/// pass on each window's features.
void probe_nn(const ProbeContext& ctx, const core::ChannelAllocator& alloc) {
  const auto& stream = ctx.in.stream;
  const std::size_t windows = 64;
  const std::size_t width = std::max<std::size_t>(stream.size() / windows, 1);
  std::vector<core::MixFeatures> features;
  std::vector<double> features_us;
  for (std::size_t begin = 0; begin + width <= stream.size(); begin += width) {
    const double t = wall_seconds();
    features.push_back(core::features_of(stream.subspan(begin, width)));
    features_us.push_back((wall_seconds() - t) * 1e6);
  }
  std::vector<double> predict_us;
  std::uint64_t sum = 0;
  for (int r = 0; r < ctx.repeats; ++r) {
    const int rounds = 32;
    const double t = wall_seconds();
    for (int k = 0; k < rounds; ++k) {
      for (const auto& f : features) sum += alloc.predict_index(f);
    }
    predict_us.push_back((wall_seconds() - t) * 1e6 /
                         static_cast<double>(rounds * features.size()));
  }
  ctx.report.set_info("nn.predicted_index_sum", std::to_string(sum));
  ctx.report.set_samples("core.features_us", features_us, "us");
  ctx.report.set_samples("nn.predict_us", predict_us, "us");
}

/// run_with_keeper against the same schedule without the keeper: a cold
/// run that switches to the keeper's pick at the keeper's decision
/// arrival. Both runs must simulate identically; the host-time ratio is the
/// keeper's own cost (feature collection, inference, hooks).
void probe_keeper(const ProbeContext& ctx,
                  const core::ChannelAllocator& alloc) {
  const auto& stream = ctx.in.stream;
  // Default device options, not the workload's: the keeper may confine a
  // writer to few channels, which a small GC-bound device cannot hold.
  const ssd::SsdOptions options;
  core::KeeperConfig keeper;
  keeper.hybrid_page_allocation = false;
  const SimTime first = stream.front().arrival;
  keeper.collect_window_ns = first + (stream.back().arrival - first) * 3 / 10;
  const auto switch_at = static_cast<std::uint64_t>(
      std::lower_bound(stream.begin(), stream.end(), keeper.collect_window_ns,
                       [](const sim::IoRequest& r, SimTime t) {
                         return r.arrival < t;
                       }) -
      stream.begin());
  core::RunConfig run;
  run.ssd = options;
  // The keeper's decision fixes the strategy and profiles the plain run
  // replays, so it runs once untimed first.
  const auto decision = core::run_with_keeper(stream, alloc, keeper, options);
  const auto profiles = decision.features.profiles(4);
  std::vector<double> keeper_s, plain_s;
  bool identical = true;
  // Pairs of runs; which one goes first alternates between pairs.
  for (int r = 0; r < 2 * ctx.repeats; ++r) {
    const bool keeper_first = (r / 2) % 2 == 0;
    const double t = wall_seconds();
    if ((r % 2 == 0) == keeper_first) {
      const auto kept = core::run_with_keeper(stream, alloc, keeper, options);
      keeper_s.push_back(wall_seconds() - t);
      identical = identical &&
                  fingerprint_of(kept.run) == fingerprint_of(decision.run);
    } else {
      const auto plain = core::run_with_strategy_switch(
          stream, core::Strategy{}, decision.strategy, switch_at, profiles,
          run);
      plain_s.push_back(wall_seconds() - t);
      identical =
          identical && fingerprint_of(plain) == fingerprint_of(decision.run);
    }
  }
  ctx.report.check("keeper_equals_cold_switch", identical);
  ctx.report.set("core.keeper_overhead_ratio",
                 median_of(keeper_s) / median_of(plain_s), "ratio");
}

/// The paper's 9-64-42 network with untrained weights and a scaler fitted
/// on the stream's window features: same inference cost as a trained one.
core::ChannelAllocator untrained_allocator(std::span<const sim::IoRequest> s) {
  const std::size_t windows = 16;
  const std::size_t width = std::max<std::size_t>(s.size() / windows, 1);
  nn::Matrix x(windows, core::kFeatureDim);
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = std::min(w * width, s.size() - 1);
    const auto f = core::features_of(
        s.subspan(begin, std::min(width, s.size() - begin))).to_vector();
    for (std::size_t c = 0; c < core::kFeatureDim; ++c) x(w, c) = f[c];
  }
  nn::StandardScaler scaler;
  scaler.fit(x);
  const auto space = core::StrategySpace::for_tenants(4);
  nn::Mlp model({core::kFeatureDim, 64, space.size()},
                nn::Activation::kLogistic, 42);
  return core::ChannelAllocator(std::move(model), std::move(scaler), space);
}

}  // namespace

void run_layer_probes(const ProbeInput& input, const Options& options,
                      Report& report) {
  const ProbeContext ctx{input, report, options.smoke ? 1 : 3};
  const double run_s = probe_replay(ctx);
  probe_snapshot(ctx);
  probe_event_queue(ctx);
  probe_ftl(ctx);
  probe_scheduler(ctx);
  probe_telemetry(ctx, run_s);
  std::optional<core::ChannelAllocator> untrained;
  if (input.allocator == nullptr) {
    untrained.emplace(untrained_allocator(input.stream));
  }
  const core::ChannelAllocator& alloc =
      input.allocator != nullptr ? *input.allocator : *untrained;
  probe_nn(ctx, alloc);
  probe_keeper(ctx, alloc);
}

}  // namespace ssdk::suite
