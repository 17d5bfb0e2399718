// Optional event recording for simulator runs.
//
// The recorder keeps up to `capacity` events (dropping the tail beyond it
// and counting the overflow) so tracing a pathological run cannot exhaust
// memory.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/event.hpp"

namespace chainckpt::sim {

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 100000);

  void record(EventKind kind, double time, std::size_t position);

  const std::vector<Event>& events() const noexcept { return events_; }
  std::size_t dropped() const noexcept { return dropped_; }
  void clear() noexcept;

  /// Number of recorded events of one kind.
  std::size_t count(EventKind kind) const noexcept;

 private:
  std::size_t capacity_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
};

}  // namespace chainckpt::sim
