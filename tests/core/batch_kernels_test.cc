// The vector kernels may only touch deterministic work, and must be
// lane-for-lane identical to the scalar reference: hashes equal to
// IntegerHash.  These tests sweep every remainder class around the vector
// widths (1, width-1, width, width+1 for widths 2, 4, 8, 16) so no lane of
// any compiled-in kernel — AVX2, SSE2, NEON, or the forced-scalar
// fallback — goes unchecked.

#include "core/batch_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "container/flat_hash_map.h"
#include "random/random.h"

namespace aqua {
namespace {

TEST(BatchKernelsTest, KernelNameIsKnown) {
  const std::string_view name = BatchKernelName();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "neon" ||
              name == "scalar")
      << name;
#if defined(AQUA_FORCE_SCALAR)
  EXPECT_EQ(name, "scalar");
#endif
}

// All batch sizes around every plausible vector width, plus empty.
std::vector<std::size_t> WidthSweep() {
  std::vector<std::size_t> sizes = {0, 1};
  for (std::size_t width : {2u, 4u, 8u, 16u}) {
    sizes.push_back(width - 1);
    sizes.push_back(width);
    sizes.push_back(width + 1);
  }
  sizes.push_back(100);
  sizes.push_back(kBatchChunk - 1);
  sizes.push_back(kBatchChunk);
  sizes.push_back(kBatchChunk + 1);
  sizes.push_back(4096);
  return sizes;
}

TEST(BatchKernelsTest, HashBatchMatchesIntegerHashLaneForLane) {
  IntegerHash reference;
  Random rng(0xBA7C4);
  for (std::size_t n : WidthSweep()) {
    std::vector<Value> values(n);
    for (Value& v : values) {
      v = static_cast<Value>(rng.UniformU64(~std::uint64_t{0}));
    }
    std::vector<std::uint64_t> hashes(n + 1, 0xDEADDEADDEADDEADULL);
    HashBatch(values, hashes.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hashes[i], reference(values[i])) << "lane " << i << " of "
                                                 << n;
    }
    // No out-of-bounds store past the batch.
    EXPECT_EQ(hashes[n], 0xDEADDEADDEADDEADULL);
  }
}

TEST(BatchKernelsTest, HashBatchExtremeValues) {
  IntegerHash reference;
  const std::vector<Value> values = {0,  -1, 1,  INT64_MIN, INT64_MAX,
                                     42, -42, 0x7f, -0x80,   1LL << 62};
  std::vector<std::uint64_t> hashes(values.size());
  HashBatch(values, hashes.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(hashes[i], reference(values[i])) << values[i];
  }
}

}  // namespace
}  // namespace aqua
