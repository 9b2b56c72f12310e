// The pricer's health ladder (HEALTHY -> DEGRADED -> FALLBACK; DESIGN.md
// §9). The online pricer (dynamic/online_pricer) climbs it, and the
// drivers, the checkpoint codec and the incident engine (obs/incident)
// read it, so the type sits in common, below all of them. Both codecs
// write a rung as a u8 in 0..2.
#pragma once

#include <cstdint>

namespace tdp {

enum class PricerHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kFallback = 2,
};

inline const char* to_string(PricerHealth health) {
  switch (health) {
    case PricerHealth::kHealthy:
      return "HEALTHY";
    case PricerHealth::kDegraded:
      return "DEGRADED";
    case PricerHealth::kFallback:
      return "FALLBACK";
  }
  return "UNKNOWN";
}

}  // namespace tdp
