// CellRange: a half-open range [begin, end) of a table's flat cell array (a
// sketch's row-major registers, a vector's components). The linear-signal
// operations take one (forecast/linear_space.h), and the sharded front
// end's row workers zero their rows of a shared table through one.
#pragma once

#include <cstddef>

namespace scd::common {

struct CellRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

}  // namespace scd::common
