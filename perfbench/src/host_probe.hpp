// Host speed probe. Co-tenants on a shared host change how fast this
// process runs by up to ~1.5x for minutes at a time, so two sets of runs of
// the same code can read that far apart. The probe measures the host's
// speed between timed runs, and the host-time metrics are reported at a
// fixed reference speed (perfbench/README.md, "Host speed").
//
// It is a fixed discrete-event kernel shaped like the simulator's hot loop:
// a binary heap of timed events and a hash map updated per event. It shares
// no code with libevm, so no change to the program can move it, and it
// allocates from its own arena, so the program's heap state cannot either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// What every run of the kernel returns; a different value means the
  /// kernel did not do its fixed work.
  static constexpr std::uint64_t kChecksum = 1252821776ULL;

  HostProbe();

  /// One run of the kernel; returns its checksum.
  std::uint64_t run();

  /// Wall milliseconds of one run, taken after an untimed run that brings
  /// the probe's own data back into the caches, so what the program left
  /// there does not change the figure. `checksum` receives the timed run's.
  double measure_ms(std::uint64_t& checksum);

 private:
  std::vector<std::byte> arena_;
};

}  // namespace perfbench
