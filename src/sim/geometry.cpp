#include "sim/geometry.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace ssdk::sim {

Geometry Geometry::paper() {
  return Geometry{};  // defaults are Table I
}

Geometry Geometry::small() {
  Geometry g;
  g.blocks_per_plane = 256;
  g.pages_per_block = 64;
  return g;
}

Geometry Geometry::tiny() {
  Geometry g;
  g.channels = 2;
  g.chips_per_channel = 1;
  g.planes_per_chip = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 8;
  return g;
}

void Geometry::validate() const {
  if (channels == 0 || chips_per_channel == 0 || planes_per_chip == 0 ||
      blocks_per_plane == 0 || pages_per_block == 0 ||
      page_size_bytes == 0) {
    throw std::invalid_argument("geometry: all dimensions must be non-zero");
  }
  // Multiply step by step and stop at the cap: each partial product is at
  // most kInvalidPpn32, so the next 64-bit multiply cannot overflow.
  std::uint64_t pages = 1;
  for (const std::uint32_t dim : {channels, chips_per_channel,
                                  planes_per_chip, blocks_per_plane,
                                  pages_per_block}) {
    pages *= dim;
    if (pages > kInvalidPpn32) {
      std::ostringstream os;
      os << "geometry: " << channels << " x " << chips_per_channel << " x "
         << planes_per_chip << " x " << blocks_per_plane << " x "
         << pages_per_block << " holds more than " << kInvalidPpn32
         << " pages; every PPN must fit below the 32-bit invalid marker";
      throw std::invalid_argument(os.str());
    }
  }
}

std::string Geometry::describe() const {
  std::ostringstream os;
  os << channels << " channels x " << chips_per_channel << " chips x "
     << planes_per_chip << " planes x " << blocks_per_plane << " blocks x "
     << pages_per_block << " pages x " << page_size_bytes << " B = "
     << static_cast<double>(capacity_bytes()) / (1024.0 * 1024.0 * 1024.0)
     << " GiB";
  return os.str();
}

}  // namespace ssdk::sim
