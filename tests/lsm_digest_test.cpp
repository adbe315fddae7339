// Pinned LSM digest: a fixed-seed put/overwrite/delete run straight on an
// LsmTree hashes (FNV-1a 64) every byte the tree leaves on NAND and every
// answer it gives, and compares against recorded constants.
//
// The run is sized to reach every path of flush and compaction: multi-page
// tables, splits at sstable_target_bytes, L0->L1 and L1->L2 compactions,
// tombstones kept above a populated level and elided at the bottom-most one,
// 16-byte keys, keys of every length 1..16 and keys holding NUL and 0xFF
// bytes. Hashed, in order:
//   - the tree's counters, level shape and the virtual clock after the run;
//   - NewIterator's output (checked against a std::map model, then hashed);
//   - the payload bytes of every SSTable page ever programmed (no checkpoint
//     has trimmed any yet, so they are contiguous from kLsmLpnBase);
//   - the Checkpoint manifest pages (every table's meta: ids, lpns, sizes,
//     min/max and fence keys, Bloom bits);
//   - after Restore into a fresh tree with a small page cache, every Get's
//     answer and the NAND pages each one read, which pins the page cache's
//     FIFO behaviour; then a full ForEachLive scan, after which every table
//     is resident and lookups read no NAND page.
//
// The constants were recorded with the merge path the streaming one
// replaced (whole runs of std::string entries merged, split and then
// encoded), so they pin that streaming moved no byte and no answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "ftl/ftl.h"
#include "lsm/lsm_tree.h"
#include "nand/nand_flash.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "stats/metrics.h"

namespace bandslim::lsm {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void Byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void Add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) Byte(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void Add(std::string_view s) {
    Add(s.size());
    for (const char c : s) Byte(static_cast<std::uint8_t>(c));
  }
  void Add(const Bytes& bytes) {
    Add(bytes.size());
    for (const std::uint8_t b : bytes) Byte(b);
  }
  void Add(const ValueRef& ref) {
    Add(ref.addr);
    Add(ref.size);
    Add(ref.tombstone ? 1 : 0);
  }
};

constexpr int kKeySpace = 6000;

// Key number `i` of the run: lengths 1..16, arbitrary bytes (NUL and 0xFF
// included), plus families that pad alike or sort at the byte extremes.
std::string KeyOf(int i) {
  const std::uint64_t m = SplitMix64(static_cast<std::uint64_t>(i) + 1);
  std::string k;
  switch (i % 10) {
    case 0:  // Full-width keys differing only late.
      k = "0123456789ab";
      for (int b = 0; b < 3; ++b) k.push_back(static_cast<char>(m >> (8 * b)));
      k.push_back(static_cast<char>(i));
      return k;
    case 1:  // NUL-extensions of one another.
      k = "n";
      k.append(1 + static_cast<std::size_t>(m % 15), '\0');
      return k;
    case 2:  // 0xFF runs with a varying head.
      k.push_back(static_cast<char>(m >> 24));
      k.append(static_cast<std::size_t>(m % 15), '\xff');
      return k;
    case 3:  // Workload M's 4-byte big-endian keys.
      k.assign(4, '\0');
      for (int b = 0; b < 4; ++b) {
        k[static_cast<std::size_t>(b)] = static_cast<char>(i >> (24 - 8 * b));
      }
      return k;
    default: {
      k.assign(1 + static_cast<std::size_t>(m % kMaxKeySize), '\0');
      std::uint64_t bits = SplitMix64(m);
      for (std::size_t b = 0; b < k.size(); ++b) {
        if (b % 8 == 0) bits = SplitMix64(bits);
        k[b] = static_cast<char>(bits >> (8 * (b % 8)));
      }
      return k;
    }
  }
}

class LsmDigestTest : public ::testing::Test {
 protected:
  LsmDigestTest()
      : nand_(Geometry(), &clock_, &cost_, &metrics_), ftl_(&nand_, &metrics_) {}

  static nand::NandGeometry Geometry() {
    nand::NandGeometry g;
    g.channels = 2;
    g.ways = 2;
    g.blocks_per_die = 256;
    g.pages_per_block = 32;
    return g;
  }
  static LsmConfig Config() {
    LsmConfig c;
    c.memtable_limit_bytes = 72 * 1024;  // ~700 entries: 1-2 page flushes.
    c.l0_compaction_trigger = 3;
    c.level_base_bytes = 40 * 1024;
    c.level_size_ratio = 4.0;
    c.sstable_target_bytes = 20 * 1024;  // Two-page compaction outputs.
    c.page_cache_pages = 6;
    return c;
  }

  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  nand::NandFlash nand_;
  ftl::PageFtl ftl_;
};

TEST_F(LsmDigestTest, FixedSeedRunMatchesRecordedDigests) {
  LsmTree tree(&ftl_, &metrics_, Config());
  std::map<std::string, ValueRef> model;  // Tombstoned keys erased.
  Xoshiro256 rng(2024);
  for (std::uint64_t op = 0; op < 40000; ++op) {
    const std::string key = KeyOf(static_cast<int>(rng.Below(kKeySpace)));
    if (rng.Below(100) < 18) {
      ASSERT_TRUE(tree.Delete(key).ok());
      model.erase(key);
    } else {
      const ValueRef ref{op * 4096 + rng.Below(4096),
                         static_cast<std::uint32_t>(1 + rng.Below(8192)),
                         false};
      ASSERT_TRUE(tree.Put(key, ref).ok());
      model[key] = ref;
    }
  }
  ASSERT_TRUE(tree.FlushMemTable().ok());
  // The run reached two compacted levels (the page and split coverage is
  // pinned by the digests below).
  ASSERT_GT(tree.TableCount(1), 0u);
  ASSERT_GT(tree.TableCount(2), 0u);

  Fnv shape;
  shape.Add(tree.compaction_bytes_written());
  shape.Add(tree.compactions_run());
  shape.Add(tree.memtable_flushes());
  shape.Add(tree.memtable_stalls());
  for (int level = 0; level < tree.level_count(); ++level) {
    shape.Add(tree.TableCount(level));
    shape.Add(tree.LevelBytes(level));
  }
  shape.Add(static_cast<std::uint64_t>(clock_.Now()));
  shape.Add(nand_.pages_programmed());
  shape.Add(nand_.pages_read());

  Fnv pages;
  std::uint64_t page_count = 0;
  for (std::uint64_t lpn = kLsmLpnBase; ftl_.IsMapped(lpn); ++lpn) {
    std::shared_ptr<const Bytes> view;
    ASSERT_TRUE(ftl_.ReadView(lpn, &view).ok());
    ASSERT_NE(view, nullptr);
    pages.Add(*view);
    ++page_count;
  }
  pages.Add(page_count);

  Fnv iter;
  {
    auto it = tree.NewIterator();
    ASSERT_TRUE(it.ok());
    auto want = model.begin();
    for (auto& i = *it.value(); i.Valid(); i.Next(), ++want) {
      ASSERT_NE(want, model.end());
      const std::string_view key = i.key();
      ASSERT_EQ(key, want->first);
      ASSERT_EQ(i.ref().addr, want->second.addr);
      iter.Add(key);
      iter.Add(i.ref());
    }
    EXPECT_EQ(want, model.end());
  }

  Fnv manifest;
  ASSERT_TRUE(tree.Checkpoint(0xD16E57).ok());
  for (std::uint64_t lpn = kManifestLpn; ftl_.IsMapped(lpn); ++lpn) {
    std::shared_ptr<const Bytes> view;
    ASSERT_TRUE(ftl_.ReadView(lpn, &view).ok());
    ASSERT_NE(view, nullptr);
    manifest.Add(*view);
  }

  Fnv restored;
  LsmTree cold(&ftl_, &metrics_, Config());
  auto cookie = cold.Restore();
  ASSERT_TRUE(cookie.ok());
  EXPECT_EQ(cookie.value(), 0xD16E57u);
  for (int i = 0; i < kKeySpace; ++i) {
    const std::string key = KeyOf(i);
    const std::uint64_t reads_before = nand_.pages_read();
    auto got = cold.Get(key);
    restored.Add(static_cast<std::uint64_t>(got.status().code()));
    restored.Add(nand_.pages_read() - reads_before);
    auto want = model.find(key);
    if (want == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << i;
      continue;
    }
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got.value().addr, want->second.addr) << i;
    restored.Add(got.value());
  }
  restored.Add(metrics_.CounterValue("lsm.bloom_skips"));
  // A full scan loads every table; lookups then read no NAND page.
  std::uint64_t live = 0;
  std::uint64_t reads_before = nand_.pages_read();
  ASSERT_TRUE(cold.ForEachLive([&](const auto& key, const ValueRef& ref) {
                    restored.Add(std::string_view(key));
                    restored.Add(ref);
                    ++live;
                  }).ok());
  EXPECT_EQ(live, model.size());
  restored.Add(nand_.pages_read() - reads_before);
  reads_before = nand_.pages_read();
  for (int i = 0; i < kKeySpace; i += 7) (void)cold.Get(KeyOf(i));
  EXPECT_EQ(nand_.pages_read(), reads_before);
  restored.Add(static_cast<std::uint64_t>(clock_.Now()));

  EXPECT_EQ(shape.h, 0x67989a9937f61829ull) << std::hex << shape.h;
  EXPECT_EQ(pages.h, 0x34718e4492239f25ull) << std::hex << pages.h;
  EXPECT_EQ(iter.h, 0xc0ad28320a6a8bbaull) << std::hex << iter.h;
  EXPECT_EQ(manifest.h, 0x206b203db7f45241ull) << std::hex << manifest.h;
  EXPECT_EQ(restored.h, 0xcd7263718cf3bb06ull) << std::hex << restored.h;
}

}  // namespace
}  // namespace bandslim::lsm
