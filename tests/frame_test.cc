// Frame checksums (net/frame.h): differential tests of the slicing-by-8
// CRC-32C against the bytewise reference, the hardware CRC-32C against its
// software path, and chaining over fragments against one flat pass.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>

namespace gthinker {
namespace {

TEST(Crc, SlicedMatchesReferenceOnRandomInputs) {
  std::mt19937 rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = rng() % 512;  // covers tails mod 8 and the empty case
    std::string data(len, '\0');
    for (auto& c : data) c = static_cast<char>(rng());
    EXPECT_EQ(net::Crc32CSoftware(data.data(), data.size()),
              net::Crc32Reference(data.data(), data.size()))
        << "len=" << len;
  }
}

TEST(Crc, KnownAnswerVectors) {
  // The classic check value: CRC-32C("123456789").
  const char* s = "123456789";
  EXPECT_EQ(net::Crc32Reference(s, 9), 0xE3069283u);
  EXPECT_EQ(net::Crc32CSoftware(s, 9), 0xE3069283u);
  EXPECT_EQ(net::Crc32C(s, 9), 0xE3069283u);
}

TEST(Crc, HardwareCrc32CMatchesSoftware) {
  if (!net::HasHardwareCrc32C()) {
    GTEST_SKIP() << "no SSE4.2 on this machine";
  }
  std::mt19937 rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = rng() % 512;
    std::string data(len, '\0');
    for (auto& c : data) c = static_cast<char>(rng());
    EXPECT_EQ(net::Crc32C(data.data(), data.size()),
              net::Crc32CSoftware(data.data(), data.size()))
        << "len=" << len;
  }
}

TEST(Crc, ChainingOverFragmentsMatchesFlatPass) {
  std::mt19937 rng(5150);
  std::string data(4096, '\0');
  for (auto& c : data) c = static_cast<char>(rng());
  for (int trial = 0; trial < 50; ++trial) {
    // Split into random fragments and chain — the exact shape of the
    // scatter-gather send path computing a frame CRC over a Payload chain.
    uint32_t ref = 0, sw = 0, c32c = 0;
    size_t off = 0;
    while (off < data.size()) {
      const size_t chunk = std::min<size_t>(1 + rng() % 700,
                                            data.size() - off);
      ref = net::Crc32Reference(data.data() + off, chunk, ref);
      sw = net::Crc32CSoftware(data.data() + off, chunk, sw);
      c32c = net::Crc32C(data.data() + off, chunk, c32c);
      off += chunk;
    }
    const uint32_t flat = net::Crc32Reference(data.data(), data.size());
    EXPECT_EQ(ref, flat);
    EXPECT_EQ(sw, flat);
    EXPECT_EQ(c32c, flat);
  }
}

}  // namespace
}  // namespace gthinker
