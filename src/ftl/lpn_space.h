// Logical page namespace of the FTL. One flat 64-bit lpn space is split into
// three fixed partitions, one per owner:
//
//   vLog      [0, kLsmLpnBase)             value-log pages, appended upwards
//   SSTables  [kLsmLpnBase, kManifestLpn)  SSTable pages, never reused
//   manifest  [kManifestLpn, kLpnSpaceEnd) LSM checkpoint pages
//
// The FTL keeps one dense forward map per partition, indexed from the
// partition's base, so an lpn must lie inside a partition and within
// kMaxPartitionPages of its base (the 30-bit index of a packed reverse-map
// entry). Every owner allocates upwards from its base, which keeps each map
// as long as the highest page its owner has written.
#pragma once

#include <cstdint>

namespace bandslim::ftl {

inline constexpr std::uint64_t kLsmLpnBase = 1ULL << 40;
inline constexpr std::uint64_t kManifestLpn = 1ULL << 41;
inline constexpr std::uint64_t kLpnSpaceEnd = 1ULL << 42;

inline constexpr int kNumLpnPartitions = 3;
inline constexpr std::uint64_t kLpnPartitionBase[kNumLpnPartitions] = {
    0, kLsmLpnBase, kManifestLpn};
inline constexpr int kLpnIndexBits = 30;
inline constexpr std::uint64_t kMaxPartitionPages = 1ULL << kLpnIndexBits;

}  // namespace bandslim::ftl
