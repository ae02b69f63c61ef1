#ifndef AQUA_CORE_BATCH_KERNELS_H_
#define AQUA_CORE_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/types.h"
#include "core/value_count.h"

namespace aqua {

/// Vectorized kernels for the deterministic half of batch ingestion.
///
/// The paper's premise is that the per-update constant is the point; these
/// kernels shrink it by processing `std::span<const Value>` batches in
/// vector-width chunks.  Only *deterministic* work is vectorized — hashing
/// (the SplitMix64 finalizer every synopsis shares) and the frozen view's
/// prefix sums — never the random stream, which is what keeps batched
/// ingestion draw-for-draw identical to per-element ingestion (the
/// equivalence the tests in tests/core/batch_kernels_test.cc pin
/// lane-for-lane against the scalar functor).
///
/// Kernel selection is at compile time: `__AVX2__` (4 × u64 lanes) when the
/// translation unit is built with -mavx2, else `__SSE2__` (2 lanes, baseline
/// on x86-64), else ARM NEON, else a portable scalar loop.  Defining
/// `AQUA_FORCE_SCALAR` (CMake -DAQUA_FORCE_SCALAR=ON) pins the scalar path
/// regardless of ISA — CI builds both legs and cross-checks them.

/// Name of the compiled-in kernel: "avx2", "sse2", "neon", or "scalar".
/// Recorded in benchmark JSON so numbers are attributable to a kernel.
std::string_view BatchKernelName();

/// hashes[i] = IntegerHash{}(values[i]) for all i — bit-identical per lane
/// to the scalar SplitMix64 finalizer in container/flat_hash_map.h.
/// `hashes` must have room for values.size() results.
void HashBatch(std::span<const Value> values, std::uint64_t* hashes);

/// Exclusive prefix sums over entry counts: prefix[0] = 0,
/// prefix[i + 1] = prefix[i] + entries[i].count.  `prefix` must have room
/// for entries.size() + 1 results.  This is FrozenView's per-epoch prefix
/// rebuild — O(m) with the additions running vector-width (an in-register
/// scan plus a carried running total per chunk), and the dominant linear
/// cost of an incremental view patch once the sorts are amortized away.
/// Integer addition is associative, so every leg is bit-identical to the
/// scalar loop.
void ExclusivePrefixCounts(std::span<const ValueCount> entries,
                           std::int64_t* prefix);

/// Chunk size used by the samples' internal batch loops: big enough to
/// amortize the kernel call, small enough that the hash scratch stays in L1.
inline constexpr std::size_t kBatchChunk = 256;

}  // namespace aqua

#endif  // AQUA_CORE_BATCH_KERNELS_H_
