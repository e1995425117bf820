// Resource requirements and software environment descriptors, the
// machine-facing half of the QoS contract (§2.1 of the paper).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace faucets::qos {

/// Software environment a job needs: executable name, host OS, and required
/// libraries/compilers. Compute Servers advertise what they support; the
/// Central Server filters on it (§5.1).
struct SoftwareEnvironment {
  std::string application;          // registered application name, e.g. "namd"
  std::string operating_system;     // e.g. "linux"
  std::vector<std::string> libraries;  // e.g. {"charm++", "fftw"}

  /// True if `host` provides everything this environment needs.
  [[nodiscard]] bool satisfied_by(const SoftwareEnvironment& host) const;
};

/// Hardware-side requirements beyond processor count.
struct ResourceRequirements {
  double memory_per_proc_mb = 0.0;  // resident set per processor
  double input_mb = 0.0;            // staged in before the run
  double output_mb = 0.0;           // staged out after the run

  [[nodiscard]] double total_memory_for(int procs) const noexcept {
    return memory_per_proc_mb * procs;
  }
};

inline bool SoftwareEnvironment::satisfied_by(const SoftwareEnvironment& host) const {
  if (!application.empty() && !host.application.empty() && application != host.application) {
    return false;
  }
  if (!operating_system.empty() && !host.operating_system.empty() &&
      operating_system != host.operating_system) {
    return false;
  }
  for (const auto& lib : libraries) {
    bool found = false;
    for (const auto& have : host.libraries) {
      if (lib == have) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace faucets::qos
