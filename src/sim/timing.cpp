#include "sim/timing.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ssdk::sim {

void Timing::validate(const Geometry& g) const {
  if (!(xfer_ns_per_byte >= 0.0) || !std::isfinite(xfer_ns_per_byte)) {
    throw std::invalid_argument(
        "timing: xfer_ns_per_byte must be finite and >= 0");
  }
  const double wire =
      xfer_ns_per_byte * static_cast<double>(g.page_size_bytes);
  if (!(wire < 0x1p64) ||  // 2^64: the first value a Duration cannot hold
      static_cast<Duration>(wire) >
          std::numeric_limits<Duration>::max() - cmd_overhead_ns) {
    throw std::invalid_argument(
        "timing: a page transfer does not fit a Duration");
  }
}

std::string Timing::describe(const Geometry& g) const {
  std::ostringstream os;
  os << "read " << to_us(read_ns) << " us, program " << to_us(program_ns)
     << " us, erase " << to_ms(erase_ns) << " ms, page transfer "
     << to_us(page_transfer_ns(g)) << " us";
  return os.str();
}

}  // namespace ssdk::sim
