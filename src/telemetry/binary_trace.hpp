// Compact binary trace format (".ssdktrc"): a fixed 32-byte header
// followed by fixed-width little-endian event records (46 bytes each), so
// two runs of the same workload can be diffed byte-for-byte or event-by-
// event without JSON parsing. Keeper decisions are not serialized (they
// carry strings and belong to the Chrome export); the reader returns
// exactly the span stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "telemetry/tracer.hpp"

namespace ssdk::telemetry {

struct BinaryTrace {
  std::vector<TraceEvent> events;
  /// Events the recording ring overwrote before export.
  std::uint64_t dropped = 0;
};

void write_binary_trace(std::ostream& os, std::span<const TraceEvent> events,
                        std::uint64_t dropped = 0);
void write_binary_trace(std::ostream& os, const Tracer& tracer);
void write_binary_trace_file(const std::string& path, const Tracer& tracer);

/// Throws std::runtime_error on bad magic, version or truncation.
BinaryTrace read_binary_trace(std::istream& in);
BinaryTrace read_binary_trace_file(const std::string& path);

/// Index of the first differing event between two traces, or npos when one
/// is a prefix of the other of equal length (identical). Lengths differing
/// with a common prefix report the shorter length.
std::size_t first_divergence(std::span<const TraceEvent> a,
                             std::span<const TraceEvent> b);
inline constexpr std::size_t kNoDivergence = ~std::size_t{0};

}  // namespace ssdk::telemetry
