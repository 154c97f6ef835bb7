#include "sim/fault_model.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ssdk::sim {

void FaultModel::validate() const {
  const auto check_prob = [](double p, const char* name, double max) {
    if (!(p >= 0.0 && p <= max)) {  // NaN fails too
      throw std::invalid_argument(std::string("fault_model: ") + name +
                                  " out of range");
    }
  };
  check_prob(read_ber, "read_ber", 1.0);
  check_prob(read_ber_per_pe, "read_ber_per_pe", 1.0);
  // A certain program/erase failure can never make forward progress.
  check_prob(program_fail, "program_fail",
             std::nextafter(1.0, 0.0));
  check_prob(erase_fail, "erase_fail", std::nextafter(1.0, 0.0));
  // A page op counts its retries in 16 bits.
  if (max_read_retries > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(
        "fault_model: max_read_retries must be <= 65535");
  }
  if (enabled() && program_fails_to_retire == 0) {
    throw std::invalid_argument(
        "fault_model: program_fails_to_retire must be >= 1");
  }
  if (enabled() && erase_fails_to_retire == 0) {
    throw std::invalid_argument(
        "fault_model: erase_fails_to_retire must be >= 1");
  }
}

std::string FaultModel::describe() const {
  if (!enabled()) return "disabled";
  std::ostringstream os;
  os << "read_ber " << read_ber << " (+" << read_ber_per_pe
     << "/PE), program_fail " << program_fail << ", erase_fail " << erase_fail
     << ", retries " << max_read_retries << ", retire after "
     << program_fails_to_retire << " program / " << erase_fails_to_retire
     << " erase fails";
  if (max_pe_cycles > 0) os << ", PE limit " << max_pe_cycles;
  os << ", seed " << seed;
  return os.str();
}

}  // namespace ssdk::sim
