#include "sim/trace.hpp"

namespace chainckpt::sim {

TraceRecorder::TraceRecorder(std::size_t capacity) : capacity_(capacity) {
  events_.reserve(capacity > 4096 ? 4096 : capacity);
}

void TraceRecorder::record(EventKind kind, double time,
                           std::size_t position) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{kind, time, position});
}

void TraceRecorder::clear() noexcept {
  events_.clear();
  dropped_ = 0;
}

std::size_t TraceRecorder::count(EventKind kind) const noexcept {
  std::size_t c = 0;
  for (const auto& e : events_)
    if (e.kind == kind) ++c;
  return c;
}

}  // namespace chainckpt::sim
