#include "fleet/migration.hpp"

#include <algorithm>

#include "core/trial.hpp"

namespace ssdk::fleet {

namespace {

/// Mean bus utilization at which a device is hot whatever its heat.
constexpr double kHotBusUtil = 0.9;

}  // namespace

std::vector<bool> detect_hot_devices(
    std::span<const telemetry::RollupSummary> summaries,
    const MigrationConfig& config) {
  std::vector<bool> hot(summaries.size(), false);
  if (summaries.empty()) return hot;

  std::vector<double> heats;
  heats.reserve(summaries.size());
  for (const auto& s : summaries) heats.push_back(s.heat());
  std::sort(heats.begin(), heats.end());
  const std::size_t n = heats.size();
  const double median = n % 2 == 1
                            ? heats[n / 2]
                            : 0.5 * (heats[n / 2 - 1] + heats[n / 2]);

  for (std::size_t d = 0; d < summaries.size(); ++d) {
    const bool heat_hot = median > 0.0 &&
                          summaries[d].heat() >=
                              config.hot_heat_ratio * median &&
                          summaries[d].heat() > 0.0;
    const bool bus_hot = summaries[d].mean_bus_util >= kHotBusUtil;
    hot[d] = heat_hot || bus_hot;
  }
  return hot;
}

double score_placement(const ssd::Ssd& device,
                       std::span<const sim::IoRequest> trial) {
  if (trial.empty()) return 0.0;
  return core::score_fork_trial(
      device, [trial](ssd::Ssd& forked) { forked.submit(trial); });
}

}  // namespace ssdk::fleet
