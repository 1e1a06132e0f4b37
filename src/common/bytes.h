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
//
// Field lists. A persisted struct names its fields once, in stream order,
// in a `template <class Ar, class Self> static void transfer(Ar&, Self&)`
// that both codecs run (through field(), pinned(), size() and array()), a
// ByteWriter over a const Self and a ByteReader over a mutable one. What
// only a reader does — check a value, rebuild derived state — sits next to
// its field in an `if constexpr (Ar::kReads)` block: a reader hook.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace scd::common {

/// Thrown by ByteReader when the input ends inside a field.
class TruncatedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a field's value does not fit where the reader puts it (an
/// integer wider than its type, a count over a capacity, a table of another
/// size). Modules map it at their public boundary, like TruncatedError.
class FieldError : public std::runtime_error {
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
  /// Field lists run their reader hooks only when this is true.
  static constexpr bool kReads = false;

  explicit ByteWriter(std::vector<std::uint8_t>& out) noexcept : out_(out) {}

  /// One field: integers and enums as u64, bool as u64 0/1, double as f64,
  /// a struct through its own transfer.
  template <typename T>
  void field(const T& v) {
    if constexpr (std::same_as<T, double>) {
      f64(v);
    } else if constexpr (std::same_as<T, bool>) {
      u64(v ? 1 : 0);
    } else if constexpr (std::integral<T> || std::is_enum_v<T>) {
      u64(static_cast<std::uint64_t>(v));
    } else {
      T::transfer(*this, v);
    }
  }
  template <typename T, std::size_t N>
  void field(const std::array<T, N>& values) {
    for (const T& v : values) field(v);
  }

  /// A field whose value the reader knows (a version, a config guard).
  template <typename T, typename Fail>
  void pinned(const T& expected, Fail&& /*fail*/) {
    field(expected);
  }

  /// The count of a count-prefixed sequence (see ByteReader::size).
  template <typename Seq, typename... Fill>
  void size(const Seq& seq, std::size_t /*min_element_bytes*/,
            const Fill&... /*fill*/) {
    u64(seq.size());
  }

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
  /// Field lists run their reader hooks only when this is true.
  static constexpr bool kReads = true;

  explicit ByteReader(std::span<const std::uint8_t> data,
                      const char* what = "input") noexcept
      : data_(data), what_(what) {}

  /// Reads one field written by ByteWriter::field. An integer or enum whose
  /// stored value does not fit its type throws FieldError.
  template <typename T>
  void field(T& v) {
    if constexpr (std::same_as<T, double>) {
      v = f64();
    } else if constexpr (std::same_as<T, bool>) {
      v = u64() != 0;
    } else if constexpr (std::integral<T> || std::is_enum_v<T>) {
      const std::uint64_t raw = u64();
      v = static_cast<T>(raw);
      if (static_cast<std::uint64_t>(v) != raw) {
        throw FieldError(std::string(what_) + " holds " +
                         std::to_string(raw) +
                         " in a field too narrow for it");
      }
    } else {
      T::transfer(*this, v);
    }
  }
  template <typename T, std::size_t N>
  void field(std::array<T, N>& values) {
    for (T& v : values) field(v);
  }

  /// Reads a field ByteWriter::pinned wrote; another value than `expected`
  /// is passed to `fail`, which must throw.
  template <typename T, typename Fail>
  void pinned(const T& expected, Fail&& fail) {
    T value{};
    field(value);
    if (value != expected) fail(value);
  }

  /// Reads a sequence's count and resizes `seq` to it (new elements copied
  /// from `fill`, if given). A count whose elements of `min_element_bytes`
  /// each overrun the input throws TruncatedError before any allocation.
  template <typename Seq, typename... Fill>
  void size(Seq& seq, std::size_t min_element_bytes, const Fill&... fill) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_element_bytes) {
      throw TruncatedError(std::string(what_) + " ends inside a sequence of " +
                           std::to_string(n) + " elements");
    }
    seq.resize(static_cast<std::size_t>(n), fill...);
  }

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

/// A struct with a field list both codecs can run.
template <typename T>
concept Transferable =
    requires(ByteWriter& out, ByteReader& in, const T& saved, T& restored) {
      T::transfer(out, saved);
      T::transfer(in, restored);
    };

}  // namespace scd::common
