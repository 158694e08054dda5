#include "obs/phase_timer.hpp"

namespace evm::obs {

void PhaseProfile::add(const std::string& phase, double ms) {
  for (auto& [name, total] : phases_) {
    if (name == phase) {
      total += ms;
      return;
    }
  }
  phases_.emplace_back(phase, ms);
}

double PhaseProfile::ms(const std::string& phase) const {
  for (const auto& [name, total] : phases_) {
    if (name == phase) return total;
  }
  return 0.0;
}

}  // namespace evm::obs
