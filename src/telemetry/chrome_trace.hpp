// Chrome trace-event JSON export (viewable in chrome://tracing and
// https://ui.perfetto.dev).
//
// Track layout:
//   pid 1 "channel buses"  one thread per channel; bus-transfer spans
//                          (exclusive by construction, so plain X events)
//   pid 2 "flash units"    one thread per execution unit; array reads,
//                          programs, erases, retry senses + GC/retire/
//                          placement point events
//   pid 3 "tenants"        one thread per tenant; request lifecycle,
//                          queue waits, admission (scheduler) waits and
//                          buffer hits as async (b/e) events so
//                          concurrent requests stack
//   pid 4 "keeper"         strategy decisions as instant events with the
//                          window's features and chosen strategy in args
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "telemetry/tracer.hpp"

namespace ssdk::telemetry {

void write_chrome_trace(std::ostream& os,
                        std::span<const TraceEvent> events,
                        std::span<const KeeperDecision> decisions);
void write_chrome_trace(std::ostream& os, const Tracer& tracer);
void write_chrome_trace_file(const std::string& path, const Tracer& tracer);

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

}  // namespace ssdk::telemetry
