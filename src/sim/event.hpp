// Event vocabulary of the Monte-Carlo execution simulator.
#pragma once

#include <cstddef>

namespace chainckpt::sim {

enum class EventKind {
  kTaskCompleted,
  kFailStop,          ///< fail-stop error interrupted a task attempt
  kDiskRecovery,      ///< rollback to the last disk checkpoint
  kSilentCorruption,  ///< silent error struck during a completed attempt
  kPartialVerifPass,  ///< partial verification found nothing (clean data)
  kPartialVerifMiss,  ///< partial verification missed an existing error
  kPartialVerifDetect,
  kGuaranteedVerifPass,
  kGuaranteedVerifDetect,
  kMemoryRecovery,  ///< rollback to the last memory checkpoint
  kMemoryCheckpoint,
  kDiskCheckpoint,
};

struct Event {
  EventKind kind;
  /// Simulated wall-clock time at which the event finished.
  double time = 0.0;
  /// Task position the event refers to (1-based; 0 = virtual T0).
  std::size_t position = 0;
};

}  // namespace chainckpt::sim
