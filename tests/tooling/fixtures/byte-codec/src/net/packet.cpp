// Fixture seed: packs a u64 with a hand-rolled little-endian loop instead
// of common/bytes.h — the byte-codec rule must fire on the shift below.
#include <cstdint>
#include <vector>

namespace fixture {

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace fixture
