#include "core/result_io.hpp"

#include <cstring>

namespace chainckpt::core {

namespace {

/// Plans serialized by this build: guards read_result against action
/// bytes outside the enum.
constexpr std::uint8_t kMaxAction =
    static_cast<std::uint8_t>(plan::Action::kDiskCheckpoint);

/// The counter block after the plan is eight u64 words: the three
/// ScanStats counters, then five reserved words, written as zero and
/// skipped on decode, which keep the layout of protocol version 1.
constexpr int kReservedCounterWords = 5;

std::uint64_t f64_bits(double value) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double bits_f64(std::uint64_t bits) noexcept {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value) {
  out.push_back(value);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double value) {
  put_u64(out, f64_bits(value));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& value) {
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

bool get_u8(const std::uint8_t* data, std::size_t size, std::size_t& offset,
            std::uint8_t& value) {
  if (offset >= size) return false;
  value = data[offset++];
  return true;
}

bool get_u16(const std::uint8_t* data, std::size_t size, std::size_t& offset,
             std::uint16_t& value) {
  if (offset > size || size - offset < 2) return false;
  value = static_cast<std::uint16_t>(data[offset] |
                                     (std::uint16_t{data[offset + 1]} << 8));
  offset += 2;
  return true;
}

bool get_u32(const std::uint8_t* data, std::size_t size, std::size_t& offset,
             std::uint32_t& value) {
  if (offset > size || size - offset < 4) return false;
  value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= std::uint32_t{data[offset + i]} << (8 * i);
  }
  offset += 4;
  return true;
}

bool get_u64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
             std::uint64_t& value) {
  if (offset > size || size - offset < 8) return false;
  value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= std::uint64_t{data[offset + i]} << (8 * i);
  }
  offset += 8;
  return true;
}

bool get_f64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
             double& value) {
  std::uint64_t bits;
  if (!get_u64(data, size, offset, bits)) return false;
  value = bits_f64(bits);
  return true;
}

bool get_string(const std::uint8_t* data, std::size_t size,
                std::size_t& offset, std::string& value) {
  std::uint32_t length;
  if (!get_u32(data, size, offset, length)) return false;
  if (offset > size || size - offset < length) return false;
  value.assign(reinterpret_cast<const char*>(data) + offset, length);
  offset += length;
  return true;
}

void append_result(std::vector<std::uint8_t>& out,
                   const OptimizationResult& result) {
  put_f64(out, result.expected_makespan);
  const std::size_t n = result.plan.size();
  put_u32(out, static_cast<std::uint32_t>(n));
  for (std::size_t i = 1; i <= n; ++i) {
    put_u8(out, static_cast<std::uint8_t>(result.plan.action(i)));
  }
  put_u64(out, result.scan.dense_cells);
  put_u64(out, result.scan.cells_scanned);
  put_u64(out, result.scan.steps);
  for (int i = 0; i < kReservedCounterWords; ++i) put_u64(out, 0);
}

bool read_result(const std::uint8_t* data, std::size_t size,
                 std::size_t& offset, OptimizationResult& result) {
  if (!get_f64(data, size, offset, result.expected_makespan)) return false;
  std::uint32_t n;
  if (!get_u32(data, size, offset, n)) return false;
  // Every action is one byte, so a plan longer than the remaining buffer
  // is malformed -- reject before allocating n actions.
  if (offset > size || size - offset < n) return false;
  std::vector<plan::Action> actions;
  actions.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint8_t raw;
    if (!get_u8(data, size, offset, raw) || raw > kMaxAction) return false;
    actions.push_back(static_cast<plan::Action>(raw));
  }
  // A decoded plan may legitimately be empty (a rejected job's default
  // result); ResiliencePlan(vector) would be fine with it too.
  result.plan = n == 0 ? plan::ResiliencePlan()
                       : plan::ResiliencePlan(std::move(actions));
  if (!get_u64(data, size, offset, result.scan.dense_cells) ||
      !get_u64(data, size, offset, result.scan.cells_scanned) ||
      !get_u64(data, size, offset, result.scan.steps)) {
    return false;
  }
  for (int i = 0; i < kReservedCounterWords; ++i) {
    std::uint64_t reserved;
    if (!get_u64(data, size, offset, reserved)) return false;
  }
  return true;
}

bool results_bitwise_equal(const OptimizationResult& a,
                           const OptimizationResult& b) noexcept {
  return a.plan == b.plan &&
         f64_bits(a.expected_makespan) == f64_bits(b.expected_makespan) &&
         a.scan.dense_cells == b.scan.dense_cells &&
         a.scan.cells_scanned == b.scan.cells_scanned &&
         a.scan.steps == b.scan.steps;
}

}  // namespace chainckpt::core
