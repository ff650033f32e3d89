#ifndef CNED_SERVE_SHARD_SNAPSHOT_H_
#define CNED_SERVE_SHARD_SNAPSHOT_H_

#include <cstdint>
#include <string>

namespace cned {

/// On-disk layout of a distributed serving snapshot (binary_io format).
///
/// `SaveServingSnapshot` splits a sharded `Laesa` + its store into one
/// directory, one shard per segment:
///   manifest.bin      router half (magic CNEDSRM1, version 2): counts
///                     {n, shards, np, pivot_arena_bytes, precision};
///                     sections shard sizes u64[shards], pivot ids
///                     u64[np], pivot lengths u64[np], pivot characters
///                     char[arena_bytes], then the GLOBAL per-row decode
///                     meta QuantRowMeta[np] (quantized tables only) and
///                     the pivot block elem[np * np] (`PivotBlock`,
///                     search/pivot_sweep.h) at the precision's element
///                     width. The router reads version 2 only
///   shard<s>.store.bin   shard s's prototypes — a standalone
///                     `PrototypeStore::SaveBinary` file
///   shard<s>.index.bin   shard s's index slice (magic CNEDSHW1): counts
///                     {n, shards, np, shard_id, n_s, base}; sections
///                     pivot ids u64[np], table f64[np * n_s]
///
/// Version 2 of the shard slice carries a quantized table (table_quant.h):
/// all six header counts are occupied, so the precision rides in an extra
/// leading section u64[2] = {precision, reserved}, followed by pivot ids
/// u64[np], the GLOBAL per-row decode meta QuantRowMeta[np], and the code
/// table elem[np * n_s] at the precision's element width. f64 snapshots
/// keep writing version 1 byte-identically.
///
/// Each worker process opens only its own two shard files, each mapped
/// once through a checksum-verifying `MappedReader` and used in place; the
/// router opens only the manifest, through the same verifying reader. No
/// process ever holds the whole index.

inline constexpr char kShardSliceMagic[8] = {'C', 'N', 'E', 'D',
                                             'S', 'H', 'W', '1'};
inline constexpr std::uint32_t kShardSliceVersion = 1;
inline constexpr std::uint32_t kShardSliceVersionQuant = 2;
inline constexpr char kRouterManifestMagic[8] = {'C', 'N', 'E', 'D',
                                                 'S', 'R', 'M', '1'};
inline constexpr std::uint32_t kRouterManifestVersion = 2;

/// Standard file names inside a snapshot directory.
std::string ManifestPath(const std::string& dir);
std::string ShardStorePath(const std::string& dir, std::size_t shard);
std::string ShardIndexPath(const std::string& dir, std::size_t shard);

class Laesa;

/// Writes the full distributed snapshot for `index` into `dir` (which must
/// exist): the router manifest plus every shard's store and index-slice
/// file, under the standard names above.
void SaveServingSnapshot(const Laesa& index, const std::string& dir);

}  // namespace cned

#endif  // CNED_SERVE_SHARD_SNAPSHOT_H_
