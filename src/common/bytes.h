// Little-endian byte codec: the one place in src/ that turns integers and
// doubles into bytes and back.
//
// Every byte stream that crosses the process boundary — checkpoint files,
// pipeline state, wire frames and payloads, sketch packets, .scdt traces —
// is little-endian so that a file or packet written on one host reads back
// bit-identically on any other. ByteWriter appends to a byte vector;
// ByteReader walks a borrowed span and throws TruncatedError instead of
// reading past its end, so a short input is a typed error, never UB. Each
// module maps TruncatedError onto its own error kind (SerializeErrorKind,
// WireErrorKind, ...) at its public boundary.
//
// On little-endian hosts every load and store is one memcpy and the array
// forms are one memcpy per array; the byte loop below is the portable
// fallback.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace scd::common {

/// Thrown by ByteReader when the input ends inside a field.
class TruncatedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <std::unsigned_integral T>
void store_le(std::uint8_t* p, T value) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &value, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
}

template <std::unsigned_integral T>
[[nodiscard]] T load_le(const std::uint8_t* p) noexcept {
  T value = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&value, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value = static_cast<T>(value | (static_cast<T>(p[i]) << (8 * i)));
    }
  }
  return value;
}

/// Words an array codec carries: fixed-width unsigned integers and doubles
/// (as their IEEE-754 bit pattern).
template <typename T>
concept LeWord = std::unsigned_integral<T> || std::same_as<T, double>;

/// Appends little-endian fields to a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) noexcept : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  /// A whole array of words, in order.
  template <LeWord T>
  void array(std::span<const T> values) {
    const std::size_t at = out_.size();
    out_.resize(at + values.size_bytes());
    std::uint8_t* p = out_.data() + at;
    if constexpr (std::endian::native == std::endian::little) {
      if (!values.empty()) std::memcpy(p, values.data(), values.size_bytes());
    } else {
      for (const T v : values) {
        if constexpr (std::same_as<T, double>) {
          store_le(p, std::bit_cast<std::uint64_t>(v));
        } else {
          store_le(p, v);
        }
        p += sizeof(T);
      }
    }
  }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    store_le(out_.data() + at, v);
  }

  std::vector<std::uint8_t>& out_;
};

/// Reads little-endian fields from a borrowed span; the span must outlive
/// the reader. `what` names the input in TruncatedError messages
/// ("<what> ends mid-field").
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data,
                      const char* what = "input") noexcept
      : data_(data), what_(what) {}

  [[nodiscard]] std::uint8_t u8() { return *take(1); }
  [[nodiscard]] std::uint32_t u32() { return load_le<std::uint32_t>(take(4)); }
  [[nodiscard]] std::uint64_t u64() { return load_le<std::uint64_t>(take(8)); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  /// The next `n` bytes as a view into the input.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    return {take(n), n};
  }

  /// Fills `out` with the next out.size() words.
  template <LeWord T>
  void array(std::span<T> out) {
    const std::uint8_t* p = take(out.size_bytes());
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty()) std::memcpy(out.data(), p, out.size_bytes());
    } else {
      for (T& v : out) {
        if constexpr (std::same_as<T, double>) {
          v = std::bit_cast<double>(load_le<std::uint64_t>(p));
        } else {
          v = load_le<T>(p);
        }
        p += sizeof(T);
      }
    }
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (remaining() < n) {
      throw TruncatedError(std::string(what_) + " ends mid-field");
    }
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::uint8_t> data_;
  const char* what_;
  std::size_t pos_ = 0;
};

}  // namespace scd::common
