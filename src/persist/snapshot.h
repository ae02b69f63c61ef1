#ifndef AQUA_PERSIST_SNAPSHOT_H_
#define AQUA_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/concise_sample.h"
#include "core/counting_sample.h"
#include "sample/reservoir_sample.h"

namespace aqua {

/// Synopsis snapshots — the paper's footnote 2: "for persistence and
/// recovery, combinations of snapshots and/or logs can be stored on disk".
///
/// Format (all integers LEB128, values delta-coded after sorting):
///   magic, version, kind, footprint_bound, threshold (IEEE bits),
///   observed_inserts, #entries, then per entry: value delta, count.
/// Counts use footnote-3 variable-length coding, so a snapshot is usually
/// far smaller than the in-memory word footprint.
///
/// Restored synopses are statistically equivalent to the saved ones (same
/// entries, threshold, and observed-insert count) but draw from a fresh
/// seeded random stream.

/// Serializes a concise sample.
std::vector<std::uint8_t> EncodeSnapshot(const ConciseSample& sample);

/// Serializes a counting sample.
std::vector<std::uint8_t> EncodeSnapshot(const CountingSample& sample);

/// Restores a concise sample on a fresh random stream drawn from `seed`.
/// InvalidArgument/OutOfRange on malformed or mismatched input.
Result<ConciseSample> DecodeConciseSnapshot(
    const std::vector<std::uint8_t>& bytes, std::uint64_t seed);

/// Restores a counting sample.
Result<CountingSample> DecodeCountingSnapshot(
    const std::vector<std::uint8_t>& bytes, std::uint64_t seed);

/// Serializes a traditional (reservoir) sample: kind 3 carries capacity,
/// algorithm, observed count and the sorted, delta-coded sample points
/// (point order is irrelevant to a uniform sample, so sorting buys both
/// compression and byte-stable re-encoding).
std::vector<std::uint8_t> EncodeSnapshot(const ReservoirSample& sample);

/// Restores a reservoir sample on a fresh random stream drawn from `seed`,
/// with the skip state re-primed at the restored position.
Result<ReservoirSample> DecodeReservoirSnapshot(
    const std::vector<std::uint8_t>& bytes, std::uint64_t seed);

}  // namespace aqua

#endif  // AQUA_PERSIST_SNAPSHOT_H_
