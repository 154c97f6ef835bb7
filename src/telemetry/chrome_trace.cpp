#include "telemetry/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <stdexcept>

namespace ssdk::telemetry {

namespace {

constexpr int kPidBuses = 1;
constexpr int kPidUnits = 2;
constexpr int kPidTenants = 3;
constexpr int kPidKeeper = 4;

/// Microsecond timestamp with nanosecond precision (ts/dur units of the
/// trace-event format are microseconds).
std::string us(SimTime ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

void meta(std::ostream& os, const char* what, int pid, std::uint64_t tid,
          const std::string& name, bool thread) {
  os << "{\"ph\":\"M\",\"name\":\"" << what << "\",\"pid\":" << pid;
  if (thread) os << ",\"tid\":" << tid;
  os << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}},\n";
}

void common_args(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{\"tenant\":" << e.tenant << ",\"op\":\""
     << op_class_name(e.op) << "\"";
  if (e.request_id != kNoRequestId) os << ",\"request\":" << e.request_id;
  if (e.detail != 0) os << ",\"detail\":" << e.detail;
  os << "}";
}

void complete_event(std::ostream& os, const TraceEvent& e, int pid,
                    std::uint64_t tid) {
  os << "{\"ph\":\"X\",\"name\":\"" << span_kind_name(e.kind)
     << "\",\"cat\":\"" << op_class_name(e.op) << "\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"ts\":" << us(e.begin)
     << ",\"dur\":" << us(e.duration()) << ",";
  common_args(os, e);
  os << "},\n";
}

void instant_event(std::ostream& os, const TraceEvent& e, int pid,
                   std::uint64_t tid) {
  os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" << span_kind_name(e.kind)
     << "\",\"cat\":\"decision\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << us(e.begin) << ",";
  common_args(os, e);
  os << "},\n";
}

/// Async begin/end pair: concurrent spans on one tenant row stack instead
/// of colliding. `id` must be unique among in-flight async events.
void async_event(std::ostream& os, const TraceEvent& e, std::uint64_t id) {
  const char* name = span_kind_name(e.kind);
  os << "{\"ph\":\"b\",\"cat\":\"lifecycle\",\"name\":\"" << name
     << "\",\"id\":" << id << ",\"pid\":" << kPidTenants
     << ",\"tid\":" << e.tenant << ",\"ts\":" << us(e.begin) << ",";
  common_args(os, e);
  os << "},\n";
  os << "{\"ph\":\"e\",\"cat\":\"lifecycle\",\"name\":\"" << name
     << "\",\"id\":" << id << ",\"pid\":" << kPidTenants
     << ",\"tid\":" << e.tenant << ",\"ts\":" << us(e.end) << "},\n";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& os,
                        std::span<const TraceEvent> events,
                        std::span<const KeeperDecision> decisions) {
  os << "{\"traceEvents\":[\n";

  meta(os, "process_name", kPidBuses, 0, "channel buses", false);
  meta(os, "process_name", kPidUnits, 0, "flash units", false);
  meta(os, "process_name", kPidTenants, 0, "tenants", false);
  if (!decisions.empty()) {
    meta(os, "process_name", kPidKeeper, 0, "keeper", false);
    meta(os, "thread_name", kPidKeeper, 0, "decisions", true);
  }
  std::set<std::uint32_t> channels, units;
  std::set<sim::TenantId> tenants;
  for (const auto& e : events) {
    if (e.channel != kNoResource) channels.insert(e.channel);
    if (e.unit != kNoResource) units.insert(e.unit);
    if (e.kind == SpanKind::kRequest || e.kind == SpanKind::kQueueWait ||
        e.kind == SpanKind::kSchedWait || e.kind == SpanKind::kBufferHit) {
      tenants.insert(e.tenant);
    }
  }
  for (const auto ch : channels) {
    meta(os, "thread_name", kPidBuses, ch, "channel " + std::to_string(ch),
         true);
  }
  for (const auto u : units) {
    meta(os, "thread_name", kPidUnits, u, "unit " + std::to_string(u), true);
  }
  for (const auto t : tenants) {
    meta(os, "thread_name", kPidTenants, t,
         t == sim::kInternalTenant ? "internal (GC)"
                                   : "tenant " + std::to_string(t),
         true);
  }

  std::uint64_t async_id = 0;
  for (const auto& e : events) {
    switch (e.kind) {
      case SpanKind::kBusTransfer:
        complete_event(os, e, kPidBuses, e.channel);
        break;
      case SpanKind::kFlashRead:
      case SpanKind::kFlashProgram:
      case SpanKind::kFlashErase:
      case SpanKind::kRetrySense:
        complete_event(os, e, kPidUnits, e.unit);
        break;
      case SpanKind::kGcVictim:
      case SpanKind::kBlockRetire:
      case SpanKind::kPageAlloc:
      case SpanKind::kRecovery:
      case SpanKind::kPowerLoss:
      case SpanKind::kVolatileLoss:
        instant_event(os, e, kPidUnits,
                      e.unit == kNoResource ? 0 : e.unit);
        break;
      case SpanKind::kMountScan:
        complete_event(os, e, kPidUnits,
                       e.unit == kNoResource ? 0 : e.unit);
        break;
      case SpanKind::kRequest:
      case SpanKind::kQueueWait:
      case SpanKind::kSchedWait:
      case SpanKind::kBufferHit:
        async_event(os, e, async_id++);
        break;
      case SpanKind::kKeeperDecision:
        break;  // rendered from the decision side-list below
    }
  }

  for (const auto& d : decisions) {
    os << "{\"ph\":\"i\",\"s\":\"g\",\"name\":\"strategy "
       << json_escape(d.strategy) << "\",\"cat\":\"keeper\",\"pid\":"
       << kPidKeeper << ",\"tid\":0,\"ts\":" << us(d.time)
       << ",\"args\":{\"strategy\":\"" << json_escape(d.strategy)
       << "\",\"features\":\"" << json_escape(d.features)
       << "\",\"changed\":" << (d.changed ? "true" : "false") << "}},\n";
  }

  // Trailing element so every real event line can end with a comma.
  os << "{\"ph\":\"M\",\"name\":\"trace_done\",\"pid\":" << kPidBuses
     << ",\"args\":{}}\n]}\n";
}

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  const auto events = tracer.events();
  write_chrome_trace(os, events, tracer.decisions());
}

void write_chrome_trace_file(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("telemetry: cannot open " + path);
  write_chrome_trace(out, tracer);
}

}  // namespace ssdk::telemetry
