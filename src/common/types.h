// Core size constants and byte-level aliases shared across the BandSlim
// stack. Sizes mirror the paper's testbed: 4 KiB host memory pages (the
// PRP/DMA unit) and 16 KiB NAND flash pages (the program unit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bandslim {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using MutByteSpan = std::span<std::uint8_t>;

// The PRP/DMA transfer unit and the host memory page size (Section 2.2).
inline constexpr std::size_t kMemPageSize = 4096;
// The NAND program unit on the Cosmos+ OpenSSD NAND module (Section 2.3).
inline constexpr std::size_t kNandPageSize = 16384;
// An NVMe submission queue entry is always 64 bytes (Section 2.5).
inline constexpr std::size_t kNvmeCommandSize = 64;
// Piggyback capacity of the BandSlim *write* command: dword4-9 (24 B) +
// dword12-13 (8 B) + 3 spare bytes of dword11 (Section 3.2, Figure 6a).
inline constexpr std::size_t kWriteCmdPiggybackCapacity = 35;
// Piggyback capacity of the BandSlim *transfer* command: every dword except
// dword0 (opcode/flags/cid) and dword1 (nsid), i.e. 14 dwords (Figure 6b).
inline constexpr std::size_t kTransferCmdPiggybackCapacity = 56;
// Maximum key length storable inline in the NVMe KV command (dword2-3 +
// dword14-15, see Figure 6). The paper's experiments use 4-byte keys.
inline constexpr std::size_t kMaxKeySize = 16;
// Largest value one PUT may carry: 512 KiB, the maximum data transfer size
// (MDTS) of the reference KV-SSD host driver. The driver and the trace reader
// reject anything larger with InvalidArgument before allocating or
// submitting, so a 32-bit value-size field never wraps.
inline constexpr std::size_t kMaxValueSize = 512 * 1024;

inline constexpr std::size_t kMemPagesPerNandPage = kNandPageSize / kMemPageSize;

// Rounds `n` up to the next multiple of `unit` (unit must be a power of two).
constexpr std::uint64_t RoundUpPow2(std::uint64_t n, std::uint64_t unit) {
  return (n + unit - 1) & ~(unit - 1);
}

constexpr std::uint64_t RoundDownPow2(std::uint64_t n, std::uint64_t unit) {
  return n & ~(unit - 1);
}

constexpr bool IsAlignedPow2(std::uint64_t n, std::uint64_t unit) {
  return (n & (unit - 1)) == 0;
}

// Number of `unit`-sized chunks needed to cover `n` bytes.
constexpr std::uint64_t CeilDiv(std::uint64_t n, std::uint64_t unit) {
  return (n + unit - 1) / unit;
}

inline ByteSpan AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

inline std::string ToString(ByteSpan b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace bandslim
