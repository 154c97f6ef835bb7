// Host clocks, the global allocation counter, statistics, the metric report
// and the benchmark's span recorder.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "suite.hpp"

// --- global allocation counter ----------------------------------------------
//
// Every operator new in the process (simulator libraries included) goes
// through these replacements, so a probe can count the allocations a call
// makes, and the process's peak of live heap bytes is known exactly
// (unlike RSS, it does not depend on page faults or huge-page promotion).
// On single-threaded workloads both are deterministic.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void* note_alloc(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* counted_alloc(std::size_t size) {
  return note_alloc(std::malloc(size == 0 ? 1 : size));
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  return note_alloc(std::aligned_alloc(a, rounded));
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace ssdk::suite {

std::size_t default_pool_workers() {
  const unsigned nproc = std::thread::hardware_concurrency();
  return nproc > 1 ? nproc - 1 : 1;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double peak_heap_mb() {
  return static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

// --- host speed calibration -------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_calibration_sink{0};

/// Fixed work resembling the simulator's mix: a sort and a hash map with
/// random access and per-node allocation. Of the kernels tried (sort, hash
/// map, pointer chase, ALU loop), this pair tracked the replay's
/// slowdowns best on a shared host.
double calibration_kernel() {
  const double start = wall_seconds();
  std::mt19937_64 rng(20240611);
  std::vector<std::uint64_t> keys(300'000);
  for (auto& k : keys) k = rng();
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (int i = 0; i < 150'000; ++i) ++counts[rng() & 0x3ffff];
  g_calibration_sink.fetch_xor(keys[keys.size() / 2] + counts.size(),
                               std::memory_order_relaxed);
  return wall_seconds() - start;
}

}  // namespace

double calibration_seconds(std::size_t threads) {
  std::vector<std::future<double>> helpers;
  for (std::size_t i = 1; i < threads; ++i) {
    helpers.push_back(std::async(std::launch::async, calibration_kernel));
  }
  double sum = calibration_kernel();
  for (auto& h : helpers) sum += h.get();
  return sum / static_cast<double>(std::max<std::size_t>(threads, 1));
}

double calibrated(double seconds, double calibration_s,
                  std::size_t threads) {
  const double reference_s = threads > 1 ? 0.080 : 0.040;
  return seconds * reference_s / calibration_s;
}

// --- statistics -------------------------------------------------------------

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  q.n = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  q.median = median_of(values);
  if (values.size() == 1) {
    q.q1 = q.q3 = values.front();
    return q;
  }
  // statistics.quantiles(..., n=4, method='exclusive').
  const std::size_t m = values.size() + 1;
  const auto cut = [&](std::size_t i) {
    std::size_t j = i * m / 4;
    const std::size_t delta = i * m - j * 4;
    j = std::clamp<std::size_t>(j, 1, values.size() - 1);
    return (values[j - 1] * static_cast<double>(4 - delta) +
            values[j] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void Fingerprint::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
}

void Fingerprint::mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }

void Fingerprint::mix(const core::RunResult& r) {
  mix(r.avg_read_us);
  mix(r.avg_write_us);
  mix(r.p99_read_us);
  mix(r.p99_write_us);
  const auto& c = r.counters;
  for (const std::uint64_t v :
       {c.host_reads, c.host_writes, c.host_trims, c.gc_migrations, c.erases,
        c.conflicts, c.page_ops, c.bus_busy_ns, c.chip_busy_ns,
        c.read_wait_ns, c.write_wait_ns, c.failed_requests}) {
    mix(v);
  }
  for (const auto& [id, t] : r.per_tenant) {
    mix(static_cast<std::uint64_t>(id));
    mix(t.total_us());
  }
  mix(static_cast<std::uint64_t>(r.device_full));
}

// --- report -----------------------------------------------------------------

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, unit, value});
}

void Report::set_simulated(const std::string& name, double value,
                           const std::string& unit) {
  set(name, value, unit);
  metrics_.back().exact = true;
}

void Report::set_samples(const std::string& name, std::vector<double> samples,
                         const std::string& unit) {
  const Quartiles q = quartiles(std::move(samples));
  set(name, q.median, unit);
  metrics_.back().q1 = q.q1;
  metrics_.back().q3 = q.q3;
  metrics_.back().n = q.n;
}

void Report::check(const std::string& oracle, bool ok,
                   const std::string& detail) {
  oracles_.emplace_back(oracle, ok);
  if (!ok) {
    std::fprintf(stderr, "%s: oracle %s FAILED%s%s\n", workload_.c_str(),
                 oracle.c_str(), detail.empty() ? "" : ": ", detail.c_str());
  }
}

void Report::count_requests(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::set_self_time(const std::string& layer, double seconds) {
  self_times_.emplace_back(layer, seconds);
}

void Report::set_info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

bool Report::correct() const {
  return std::all_of(oracles_.begin(), oracles_.end(),
                     [](const auto& o) { return o.second; });
}

void Report::print(std::FILE* out) const {
  for (const auto& m : metrics_) {
    std::fprintf(out, "%s %s %.9g %s\n", workload_.c_str(), m.name.c_str(),
                 m.value, m.unit.c_str());
  }
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload_)
     << ", \"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ",\n  " : "\n  ") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit);
    if (m.n > 0) {
      os << ", \"q1\": " << json_number(m.q1)
         << ", \"q3\": " << json_number(m.q3) << ", \"n\": " << m.n;
    }
    if (m.exact) os << ", \"exact\": true";
    os << "}";
  }
  os << "},\n \"oracles\": {";
  for (std::size_t i = 0; i < oracles_.size(); ++i) {
    os << (i ? ", " : "") << json_string(oracles_[i].first) << ": "
       << (oracles_[i].second ? "true" : "false");
  }
  os << "},\n \"layer_self_s\": {";
  for (std::size_t i = 0; i < self_times_.size(); ++i) {
    os << (i ? ", " : "") << json_string(self_times_[i].first) << ": "
       << json_number(self_times_[i].second);
  }
  os << "},\n \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    os << (i ? ", " : "") << json_string(info_[i].first) << ": "
       << json_string(info_[i].second);
  }
  os << "}}";
  return os.str();
}

// --- spans ------------------------------------------------------------------

namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint32_t> g_next_thread{0};
std::mutex g_spans_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mutex

thread_local std::vector<std::uint64_t> t_open;
thread_local std::uint32_t t_thread = ~std::uint32_t{0};

std::uint32_t this_thread_index() {
  if (t_thread == ~std::uint32_t{0}) t_thread = g_next_thread++;
  return t_thread;
}

}  // namespace

void start_spans() {
  {
    std::lock_guard<std::mutex> lock(g_spans_mutex);
    g_spans.clear();
  }
  g_recording.store(true, std::memory_order_release);
}

std::vector<SpanRecord> stop_spans() {
  g_recording.store(false, std::memory_order_release);
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(g_spans_mutex);
    out.swap(g_spans);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.start_s < b.start_s || (a.start_s == b.start_s && a.id < b.id);
  });
  return out;
}

Span::Span(const char* name) : name_(name) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  active_ = true;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(id_);
  start_ = wall_seconds();
}

Span::~Span() {
  if (!active_) return;
  const double end = wall_seconds();
  t_open.pop_back();
  SpanRecord r{name_, start_, end, id_, parent_, this_thread_index()};
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back(r);
}

std::vector<std::pair<std::string, double>> layer_self_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, double> child_time;
  for (const auto& s : spans) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> by_layer;
  for (const auto& s : spans) {
    const std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    const auto it = child_time.find(s.id);
    const double children = it == child_time.end() ? 0.0 : it->second;
    by_layer[layer] += std::max(0.0, s.end_s - s.start_s - children);
  }
  return {by_layer.begin(), by_layer.end()};
}

void write_span_file(const std::string& path,
                     const std::vector<SpanRecord>& spans,
                     const std::string& workload) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  const double origin = spans.empty() ? 0.0 : spans.front().start_s;
  os << "{\"displayTimeUnit\": \"ms\", \"workload\": "
     << json_string(workload) << ", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
       << ", \"ts\": " << json_number((s.start_s - origin) * 1e6)
       << ", \"dur\": " << json_number((s.end_s - s.start_s) * 1e6)
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << "}}";
  }
  os << "\n], \"layerSelfSeconds\": {";
  const auto self = layer_self_times(spans);
  for (std::size_t i = 0; i < self.size(); ++i) {
    os << (i ? ", " : "") << json_string(self[i].first) << ": "
       << json_number(self[i].second);
  }
  os << "}}\n";
}

}  // namespace ssdk::suite
