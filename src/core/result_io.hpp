// Byte-stream (de)serialization helpers for solver results.
//
// The network edge (src/net/) ships jobs and results between processes
// under a bitwise contract: a result decoded from the wire must compare
// bit-for-bit equal to the in-process OptimizationResult it came from --
// the same discipline scenario/spec_io.hpp applies to its %.17g JSON
// round trips, realized here the binary way: every double travels as its
// IEEE-754 bit pattern (no formatting, no rounding), every integer as
// fixed-width little-endian.  The helpers live in core (not net) because
// they serialize core types and because checkpoint/cluster serialization
// (the next ROADMAP item) will reuse the same primitives.
//
// Readers are hardened for untrusted input: every get_* bounds-checks
// against the buffer and returns false instead of reading past the end,
// and read_result() validates counts before allocating, so a hostile
// length field cannot drive an oversized allocation or an out-of-bounds
// read (the wire fuzz battery, tests/net/wire_fuzz_test.cpp, leans on
// this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dp_context.hpp"

namespace chainckpt::core {

// ----------------------------------------------------------- primitives
// Appenders: fixed-width little-endian, doubles as bit patterns.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value);
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value);
void put_f64(std::vector<std::uint8_t>& out, double value);
/// Length-prefixed (u32) byte string.
void put_string(std::vector<std::uint8_t>& out, const std::string& value);

// Readers: advance `offset` and return true only when the full value fit
// inside [data, data + size).  On false the offset is unspecified and the
// caller must abandon the buffer.
bool get_u8(const std::uint8_t* data, std::size_t size, std::size_t& offset,
            std::uint8_t& value);
bool get_u16(const std::uint8_t* data, std::size_t size, std::size_t& offset,
             std::uint16_t& value);
bool get_u32(const std::uint8_t* data, std::size_t size, std::size_t& offset,
             std::uint32_t& value);
bool get_u64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
             std::uint64_t& value);
bool get_f64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
             double& value);
/// Rejects declared lengths that exceed the bytes actually present, so a
/// hostile prefix cannot trigger a large allocation.
bool get_string(const std::uint8_t* data, std::size_t size,
                std::size_t& offset, std::string& value);

// ------------------------------------------------------------- results
/// Appends plan + objective + scan counters, then five reserved zero
/// words (see docs/PROTOCOL.md).  Field-complete: two results that
/// serialize identically are bitwise-equal OptimizationResults.
void append_result(std::vector<std::uint8_t>& out,
                   const OptimizationResult& result);

/// Inverse of append_result(); false on truncated or malformed bytes
/// (including a plan whose declared size exceeds the remaining buffer or
/// whose action bytes are out of the enum's range).
bool read_result(const std::uint8_t* data, std::size_t size,
                 std::size_t& offset, OptimizationResult& result);

/// Bitwise equality of two results: plans equal, objective and every scan
/// counter identical at the bit level (the loopback equivalence tests'
/// comparison; NaN-safe unlike operator== on doubles).
bool results_bitwise_equal(const OptimizationResult& a,
                           const OptimizationResult& b) noexcept;

}  // namespace chainckpt::core
