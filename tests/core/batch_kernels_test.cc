// The vector kernels may only touch deterministic work, and must be
// lane-for-lane identical to the scalar reference: hashes equal to
// IntegerHash.  These tests sweep every remainder class around the vector
// widths (1, width-1, width, width+1 for widths 2, 4, 8, 16) so no lane of
// any compiled-in kernel — AVX2, SSE2, NEON, or the forced-scalar
// fallback — goes unchecked.

#include "core/batch_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "container/flat_hash_map.h"
#include "core/concise_sample.h"
#include "core/counting_sample.h"
#include "random/random.h"
#include "workload/generators.h"

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

// Prehashed sample ingestion must be bit-identical to the self-hashing
// batch path (which the equivalence suite already pins against per-element
// Insert) across the same width sweep.
TEST(BatchKernelsTest, PrehashedConciseSampleMatches) {
  const std::vector<Value> data = ZipfValues(40000, 2000, 1.0, 777);
  ConciseSampleOptions o;
  o.footprint_bound = 300;
  o.seed = 21;
  ConciseSample plain(o);
  ConciseSample prehashed(o);
  std::vector<std::uint64_t> hashes(data.size());
  HashBatch(data, hashes.data());
  const std::span<const Value> all(data);
  const std::span<const std::uint64_t> all_hashes(hashes);
  for (std::size_t n : WidthSweep()) {
    std::size_t i = 0;
    // consume the stream in sweep-sized slices, alternating entry points
    for (; i + n <= data.size() && n > 0; i += n) {
      plain.InsertBatch(all.subspan(i, n));
      prehashed.InsertBatchPrehashed(all.subspan(i, n),
                                     all_hashes.subspan(i, n));
    }
    EXPECT_EQ(plain.SampleSize(), prehashed.SampleSize());
    EXPECT_EQ(plain.Threshold(), prehashed.Threshold());
    break;  // one full pass with the first nonzero size is enough here
  }
}

TEST(BatchKernelsTest, PrehashedCountingSampleMatchesEverySliceSize) {
  const std::vector<Value> data = ZipfValues(30000, 1500, 0.8, 555);
  for (std::size_t n : WidthSweep()) {
    if (n == 0) continue;
    CountingSampleOptions o;
    o.footprint_bound = 250;
    o.seed = 31;
    CountingSample plain(o);
    CountingSample prehashed(o);
    std::vector<std::uint64_t> hashes(data.size());
    HashBatch(data, hashes.data());
    const std::span<const Value> all(data);
    const std::span<const std::uint64_t> all_hashes(hashes);
    for (std::size_t i = 0; i < data.size(); i += n) {
      const std::size_t len = std::min(n, data.size() - i);
      plain.InsertBatch(all.subspan(i, len));
      prehashed.InsertBatchPrehashed(all.subspan(i, len),
                                     all_hashes.subspan(i, len));
    }
    EXPECT_EQ(plain.Threshold(), prehashed.Threshold()) << "slice " << n;
    EXPECT_EQ(plain.CountedOccurrences(), prehashed.CountedOccurrences())
        << "slice " << n;
    auto a = plain.Entries();
    auto b = prehashed.Entries();
    std::sort(a.begin(), a.end(), [](const ValueCount& x, const ValueCount& y) {
      return x.value < y.value;
    });
    std::sort(b.begin(), b.end(), [](const ValueCount& x, const ValueCount& y) {
      return x.value < y.value;
    });
    EXPECT_EQ(a, b) << "slice " << n;
  }
}

}  // namespace
}  // namespace aqua
