#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "lsm/compaction.h"
#include "lsm/lsm_tree.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"

namespace bandslim::lsm {
namespace {

// --------------------------- MemTable -------------------------------------

TEST(MemTableTest, PutGetOverwrite) {
  MemTable mem;
  mem.Put("b", {100, 10, false});
  mem.Put("a", {200, 20, false});
  ASSERT_NE(mem.Get("a"), nullptr);
  EXPECT_EQ(mem.Get("a")->addr, 200u);
  mem.Put("a", {300, 30, false});
  EXPECT_EQ(mem.Get("a")->addr, 300u);
  EXPECT_EQ(mem.entry_count(), 2u);  // Overwrite, not insert.
  EXPECT_EQ(mem.Get("zz"), nullptr);
}

TEST(MemTableTest, TombstoneVisible) {
  MemTable mem;
  mem.Put("k", {1, 1, false});
  mem.Delete("k");
  ASSERT_NE(mem.Get("k"), nullptr);
  EXPECT_TRUE(mem.Get("k")->tombstone);
}

TEST(MemTableTest, IterationIsSorted) {
  MemTable mem(123);
  for (int i = 999; i >= 0; --i) {
    char key[8];
    std::snprintf(key, sizeof key, "%04d", i);
    mem.Put(key, {static_cast<std::uint64_t>(i), 1, false});
  }
  int count = 0;
  std::string prev;
  for (auto it = mem.Begin(); it.Valid(); it.Next(), ++count) {
    EXPECT_LT(prev, it.key());
    prev = it.key();
  }
  EXPECT_EQ(count, 1000);
}

TEST(MemTableTest, MatchesReferenceModel) {
  MemTable mem(7);
  std::map<std::string, std::uint64_t> model;
  Xoshiro256 rng(99);
  for (int i = 0; i < 5000; ++i) {
    std::string key = std::to_string(rng.Below(800));
    const std::uint64_t addr = rng();
    mem.Put(key, {addr, 4, false});
    model[key] = addr;
  }
  EXPECT_EQ(mem.entry_count(), model.size());
  for (const auto& [key, addr] : model) {
    ASSERT_NE(mem.Get(key), nullptr) << key;
    EXPECT_EQ(mem.Get(key)->addr, addr) << key;
  }
  // Iteration order matches std::map.
  auto it = mem.Begin();
  for (const auto& [key, addr] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), key);
    it.Next();
  }
}

TEST(MemTableTest, ClearResets) {
  MemTable mem;
  mem.Put("a", {1, 1, false});
  mem.Clear();
  EXPECT_TRUE(mem.empty());
  EXPECT_EQ(mem.Get("a"), nullptr);
  EXPECT_EQ(mem.approximate_bytes(), 0u);
  mem.Put("b", {2, 2, false});  // Usable after Clear.
  EXPECT_NE(mem.Get("b"), nullptr);
}

// Keys the hashed, zero-padded encoding must keep apart and order exactly as
// std::string does: embedded NULs and keys that are NUL-extensions of one
// another (equal once padded, told apart by length), high bytes 0x80-0xFF
// (unsigned order), full-width 16-byte keys differing in the last byte only,
// and 4-byte binary keys as Workload M issues. Put, overwrite and Delete are
// mixed over several Clear() cycles against a std::map model.
TEST(MemTableTest, EncodingEdgeCasesMatchMapModel) {
  std::vector<std::string> keys = {"ab", "b"};
  for (int b = 0x7e; b <= 0xff; b += 3) {
    keys.emplace_back(1, static_cast<char>(b));
    keys.push_back(std::string("k") + static_cast<char>(b) + "z");
  }
  for (int last = 0; last < 256; last += 17) {
    std::string k = "0123456789abcde";
    k.push_back(static_cast<char>(last));
    keys.push_back(k);
    k[7] = '\xff';
    keys.push_back(k);
  }
  // Every length 1..16: prefixes of one mixed-byte key, all-0xFF keys, and
  // two families whose members all pad to the same words ("\0"..., "a\0"...).
  const std::string mixed = std::string("\x01\x80\x7f\xfe") + "abcdefghijkl";
  for (std::size_t len = 1; len <= kMaxKeySize; ++len) {
    keys.push_back(mixed.substr(0, len));
    keys.emplace_back(len, '\xff');
    keys.emplace_back(len, '\0');
    keys.push_back("a" + std::string(len - 1, '\0'));
  }
  for (std::uint32_t v : {0u, 1u, 0x80u, 0xffu, 0x100u, 0x80000000u,
                          0xffffffffu, 0x00ff00ffu, 0x7fffffffu}) {
    std::string k(4, '\0');
    for (int i = 0; i < 4; ++i) {
      k[static_cast<std::size_t>(i)] = static_cast<char>(v >> (24 - 8 * i));
    }
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  MemTable mem(5);
  Xoshiro256 rng(17);
  for (int cycle = 0; cycle < 4; ++cycle) {
    std::map<std::string, ValueRef> model;
    for (int i = 0; i < 600; ++i) {
      // A mid-cycle iteration caches an order the later inserts must drop.
      if (i == 300) (void)mem.Begin();
      const std::string& key = keys[rng.Below(keys.size())];
      if (rng.Below(4) == 0) {
        mem.Delete(key);
        model[key] = ValueRef{0, 0, true};
      } else {
        const ValueRef ref{rng(), static_cast<std::uint32_t>(i), false};
        mem.Put(key, ref);
        model[key] = ref;
      }
    }
    EXPECT_EQ(mem.entry_count(), model.size());
    EXPECT_EQ(mem.Get(""), nullptr);
    for (const std::string& key : keys) {
      const ValueRef* got = mem.Get(key);
      auto want = model.find(key);
      if (want == model.end()) {
        EXPECT_EQ(got, nullptr) << "cycle " << cycle;
        continue;
      }
      ASSERT_NE(got, nullptr) << "cycle " << cycle;
      EXPECT_EQ(got->addr, want->second.addr);
      EXPECT_EQ(got->size, want->second.size);
      EXPECT_EQ(got->tombstone, want->second.tombstone);
    }
    auto it = mem.Begin();
    for (const auto& [key, ref] : model) {
      ASSERT_TRUE(it.Valid());
      EXPECT_EQ(it.key(), key) << "cycle " << cycle;
      EXPECT_EQ(it.ref().addr, ref.addr);
      it.Next();
    }
    EXPECT_FALSE(it.Valid());
    mem.Clear();
    EXPECT_TRUE(mem.empty());
  }
}

// --------------------------- SSTable ---------------------------------------

class SSTableTest : public ::testing::Test {
 protected:
  SSTableTest()
      : nand_(Geometry(), &clock_, &cost_, &metrics_), ftl_(&nand_, &metrics_) {}
  static nand::NandGeometry Geometry() {
    nand::NandGeometry g;
    g.channels = 1;
    g.ways = 2;
    g.blocks_per_die = 64;
    g.pages_per_block = 16;
    return g;
  }
  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  nand::NandFlash nand_;
  ftl::PageFtl ftl_;
};

std::vector<SSTableEntry> MakeEntries(int n, int salt = 0) {
  std::vector<SSTableEntry> entries;
  for (int i = 0; i < n; ++i) {
    char key[12];
    std::snprintf(key, sizeof key, "k%06d", i);
    entries.push_back({key,
                       {static_cast<std::uint64_t>(i * 100 + salt),
                        static_cast<std::uint32_t>(i % 1000 + 1), (i % 7) == 3}});
  }
  return entries;
}

TEST_F(SSTableTest, WriteReadRoundTrip) {
  auto entries = MakeEntries(1000);
  auto meta = WriteSSTable(&ftl_, 1, kLsmLpnBase, entries);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta.value().entry_count, 1000u);
  EXPECT_EQ(meta.value().min_key, "k000000");
  EXPECT_EQ(meta.value().max_key, "k000999");
  EXPECT_GT(meta.value().page_count, 0u);

  auto back = ReadSSTable(&ftl_, meta.value());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back.value()[i].key, entries[i].key);
    EXPECT_EQ(back.value()[i].ref.addr, entries[i].ref.addr);
    EXPECT_EQ(back.value()[i].ref.size, entries[i].ref.size);
    EXPECT_EQ(back.value()[i].ref.tombstone, entries[i].ref.tombstone);
  }
}

TEST_F(SSTableTest, MultiPageTable) {
  auto entries = MakeEntries(3000);  // ~66 KB > 4 pages.
  auto meta = WriteSSTable(&ftl_, 2, kLsmLpnBase, entries);
  ASSERT_TRUE(meta.ok());
  EXPECT_GE(meta.value().page_count, 4u);
  auto back = ReadSSTable(&ftl_, meta.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 3000u);
}

TEST_F(SSTableTest, EmptyTableRejected) {
  EXPECT_FALSE(WriteSSTable(&ftl_, 3, kLsmLpnBase, {}).ok());
}

TEST_F(SSTableTest, OverlapPredicate) {
  SSTableMeta m;
  m.min_key = "c";
  m.max_key = "f";
  EXPECT_TRUE(m.Overlaps("a", "d"));
  EXPECT_TRUE(m.Overlaps("d", "e"));
  EXPECT_TRUE(m.Overlaps("f", "z"));
  EXPECT_FALSE(m.Overlaps("a", "b"));
  EXPECT_FALSE(m.Overlaps("g", "z"));
}

// --------------------------- Merge machinery -------------------------------

TEST(MergeTest, NewestRunWins) {
  std::vector<SSTableEntry> newer = {{"a", {1, 1, false}}, {"c", {3, 1, false}}};
  std::vector<SSTableEntry> older = {{"a", {9, 9, false}}, {"b", {2, 1, false}}};
  auto merged = MergeRuns({&newer, &older}, false);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, "a");
  EXPECT_EQ(merged[0].ref.addr, 1u);  // From the newer run.
  EXPECT_EQ(merged[1].key, "b");
  EXPECT_EQ(merged[2].key, "c");
}

TEST(MergeTest, TombstonesDroppedOnlyWhenAsked) {
  std::vector<SSTableEntry> newer = {{"a", {0, 0, true}}};
  std::vector<SSTableEntry> older = {{"a", {9, 9, false}}};
  auto kept = MergeRuns({&newer, &older}, false);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept[0].ref.tombstone);
  auto dropped = MergeRuns({&newer, &older}, true);
  EXPECT_TRUE(dropped.empty());
}

TEST(MergeTest, SplitRunRespectsTargetBytes) {
  auto entries = MakeEntries(1000);
  for (auto& e : entries) e.ref.tombstone = false;
  auto splits = SplitRun(entries, 4096);
  EXPECT_GT(splits.size(), 1u);
  std::size_t total = 0;
  for (const auto& part : splits) {
    std::uint64_t bytes = 0;
    for (const auto& e : part) bytes += EncodedEntrySize(e);
    EXPECT_LE(bytes, 4096u);
    total += part.size();
  }
  EXPECT_EQ(total, 1000u);
}

// --------------------------- LsmTree ---------------------------------------

class LsmTreeTest : public ::testing::Test {
 protected:
  LsmTreeTest()
      : nand_(Geometry(), &clock_, &cost_, &metrics_),
        ftl_(&nand_, &metrics_),
        lsm_(&ftl_, &metrics_, Config()) {}

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
    c.memtable_limit_bytes = 4096;  // Tiny: force frequent flushes.
    c.l0_compaction_trigger = 3;
    c.level_base_bytes = 16 * 1024;
    c.sstable_target_bytes = 8 * 1024;
    return c;
  }

  static std::string Key(int i) {
    char k[12];
    std::snprintf(k, sizeof k, "%08d", i);
    return k;
  }

  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  nand::NandFlash nand_;
  ftl::PageFtl ftl_;
  LsmTree lsm_;
};

TEST_F(LsmTreeTest, PutGetThroughFlushesAndCompactions) {
  std::map<std::string, std::uint64_t> model;
  Xoshiro256 rng(5);
  for (int i = 0; i < 4000; ++i) {
    std::string key = Key(static_cast<int>(rng.Below(1500)));
    const std::uint64_t addr = rng() >> 16;
    ASSERT_TRUE(lsm_.Put(key, {addr, 8, false}).ok());
    model[key] = addr;
  }
  EXPECT_GT(lsm_.memtable_flushes(), 0u);
  EXPECT_GT(lsm_.compactions_run(), 0u);
  for (const auto& [key, addr] : model) {
    auto ref = lsm_.Get(key);
    ASSERT_TRUE(ref.ok()) << key;
    EXPECT_EQ(ref.value().addr, addr) << key;
  }
  EXPECT_TRUE(lsm_.Get(Key(99999)).status().IsNotFound());
}

TEST_F(LsmTreeTest, DeleteShadowsOlderVersions) {
  ASSERT_TRUE(lsm_.Put("k1", {1, 1, false}).ok());
  ASSERT_TRUE(lsm_.FlushMemTable().ok());
  ASSERT_TRUE(lsm_.Delete("k1").ok());
  EXPECT_TRUE(lsm_.Get("k1").status().IsNotFound());
  ASSERT_TRUE(lsm_.FlushMemTable().ok());
  EXPECT_TRUE(lsm_.Get("k1").status().IsNotFound());
}

TEST_F(LsmTreeTest, RePutAfterDelete) {
  ASSERT_TRUE(lsm_.Put("k", {1, 1, false}).ok());
  ASSERT_TRUE(lsm_.Delete("k").ok());
  ASSERT_TRUE(lsm_.Put("k", {2, 2, false}).ok());
  auto ref = lsm_.Get("k");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().addr, 2u);
}

TEST_F(LsmTreeTest, InvalidKeysRejected) {
  EXPECT_FALSE(lsm_.Put("", {1, 1, false}).ok());
  EXPECT_FALSE(lsm_.Put(std::string(17, 'x'), {1, 1, false}).ok());
  EXPECT_FALSE(lsm_.Delete("").ok());
}

TEST_F(LsmTreeTest, IteratorMergesAllSources) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i * 2), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(lsm_.Delete(Key(10)).ok());
  auto iter = lsm_.NewIterator();
  ASSERT_TRUE(iter.ok());
  int count = 0;
  std::string prev;
  for (auto& it = *iter.value(); it.Valid(); it.Next()) {
    EXPECT_LT(prev, it.key());
    EXPECT_NE(it.key(), Key(10));  // Tombstoned key elided.
    prev = it.key();
    ++count;
  }
  EXPECT_EQ(count, 499);
}

TEST_F(LsmTreeTest, IteratorSeek) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i * 10), {1, 1, false}).ok());
  }
  auto iter = lsm_.NewIterator();
  ASSERT_TRUE(iter.ok());
  iter.value()->Seek(Key(55));
  ASSERT_TRUE(iter.value()->Valid());
  EXPECT_EQ(iter.value()->key(), Key(60));
}

TEST_F(LsmTreeTest, CheckpointRestoreRoundTrip) {
  std::map<std::string, std::uint64_t> model;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = Key(i);
    ASSERT_TRUE(lsm_.Put(key, {static_cast<std::uint64_t>(i) * 7, 8, false}).ok());
    model[key] = static_cast<std::uint64_t>(i) * 7;
  }
  ASSERT_TRUE(lsm_.Checkpoint(0xC00C1E).ok());

  // A fresh tree over the same FTL restores the manifest.
  LsmTree restored(&ftl_, &metrics_, Config());
  auto cookie = restored.Restore();
  ASSERT_TRUE(cookie.ok()) << cookie.status().ToString();
  EXPECT_EQ(cookie.value(), 0xC00C1Eu);
  for (const auto& [key, addr] : model) {
    auto ref = restored.Get(key);
    ASSERT_TRUE(ref.ok()) << key;
    EXPECT_EQ(ref.value().addr, addr);
  }
}

TEST_F(LsmTreeTest, RestoreWithoutManifestFails) {
  LsmTree fresh(&ftl_, &metrics_, Config());
  EXPECT_TRUE(fresh.Restore().status().IsNotFound());
}

TEST_F(LsmTreeTest, ForEachLiveVisitsEverything) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(lsm_.Delete(Key(7)).ok());
  int visited = 0;
  ASSERT_TRUE(lsm_.ForEachLive([&](const std::string&, const ValueRef&) {
    ++visited;
  }).ok());
  EXPECT_EQ(visited, 299);
}

TEST_F(LsmTreeTest, CompactionTrimsOldTablesAfterCheckpoint) {
  // After heavy churn, dead SSTable pages must be reclaimed — but only once
  // a checkpoint makes the new table set durable (trims are deferred so a
  // power cycle can never resurrect dangling manifest references).
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(
          lsm_.Put(Key(i), {static_cast<std::uint64_t>(round), 4, false}).ok());
    }
  }
  const std::uint64_t mapped_before_checkpoint = ftl_.mapped_pages();
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  // Mapped LSM pages are now bounded by live tables + manifest, far less
  // than all pages ever written.
  const std::uint64_t written = metrics_.CounterValue("ftl.programs.lsm");
  EXPECT_GT(written, ftl_.mapped_pages());
  EXPECT_LT(ftl_.mapped_pages(), mapped_before_checkpoint);
}



// ----------------------- Page-aligned format -------------------------------

TEST_F(SSTableTest, PagesAreSelfContained) {
  auto entries = MakeEntries(3000);  // Spans several pages.
  auto meta = WriteSSTable(&ftl_, 10, kLsmLpnBase + 100, entries);
  ASSERT_TRUE(meta.ok());
  ASSERT_GT(meta.value().page_count, 1u);
  ASSERT_EQ(meta.value().fence_keys.size(), meta.value().page_count);
  // Each page decodes independently and starts at its fence key.
  std::size_t total = 0;
  for (std::uint32_t p = 0; p < meta.value().page_count; ++p) {
    auto page = ReadSSTablePage(&ftl_, meta.value(), p);
    ASSERT_TRUE(page.ok()) << p;
    ASSERT_FALSE(page.value().empty());
    EXPECT_EQ(page.value().front().key, meta.value().fence_keys[p]);
    total += page.value().size();
  }
  EXPECT_EQ(total, entries.size());
  EXPECT_FALSE(ReadSSTablePage(&ftl_, meta.value(), meta.value().page_count).ok());
}

TEST_F(SSTableTest, PageForKeyFindsUniqueCandidate) {
  auto entries = MakeEntries(3000);
  auto meta = WriteSSTable(&ftl_, 11, kLsmLpnBase + 200, entries);
  ASSERT_TRUE(meta.ok());
  // Every entry's key maps to the page that actually contains it.
  for (std::size_t i = 0; i < entries.size(); i += 97) {
    const int p = meta.value().PageForKey(entries[i].key);
    ASSERT_GE(p, 0);
    auto page = ReadSSTablePage(&ftl_, meta.value(), static_cast<std::uint32_t>(p));
    ASSERT_TRUE(page.ok());
    bool found = false;
    for (const auto& e : page.value()) found |= (e.key == entries[i].key);
    EXPECT_TRUE(found) << entries[i].key;
  }
  // Below the minimum key: no candidate page.
  EXPECT_EQ(meta.value().PageForKey(""), -1);
}

TEST_F(LsmTreeTest, PointLookupReadsAtMostOnePage) {
  // Far more entries than one page holds; drop in-memory caches by
  // round-tripping through the manifest.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  LsmConfig config = Config();
  config.page_cache_pages = 0;  // Disable caching: count raw page reads.
  LsmTree cold(&ftl_, &metrics_, config);
  ASSERT_TRUE(cold.Restore().ok());
  for (int i = 100; i < 120; ++i) {
    const std::uint64_t before = nand_.pages_read();
    auto ref = cold.Get(Key(i));
    ASSERT_TRUE(ref.ok()) << i;
    EXPECT_EQ(ref.value().addr, static_cast<std::uint64_t>(i));
    // One page per probed table, and tables are disjoint past L0.
    EXPECT_LE(nand_.pages_read() - before, 3u) << i;
  }
}

TEST_F(LsmTreeTest, PageCacheServesRepeatLookups) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  LsmTree cold(&ftl_, &metrics_, Config());
  ASSERT_TRUE(cold.Restore().ok());
  ASSERT_TRUE(cold.Get(Key(500)).ok());
  const std::uint64_t after_first = nand_.pages_read();
  // Same key again: fully served from the decoded-page cache.
  ASSERT_TRUE(cold.Get(Key(500)).ok());
  EXPECT_EQ(nand_.pages_read(), after_first);
}

// --------------------------- Bloom filter ----------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("bloomkey" + std::to_string(i));
    bloom.Add(keys.back());
  }
  for (const auto& key : keys) {
    EXPECT_TRUE(bloom.MayContain(key)) << key;
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.Add("in" + std::to_string(i));
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.MayContain("out" + std::to_string(i))) ++false_positives;
  }
  // 10 bits/key, 7 probes: ~1 %; allow generous slack.
  EXPECT_LT(false_positives, probes / 25);
}

TEST(BloomFilterTest, EmptyFilterSaysMaybe) {
  BloomFilter bloom;
  EXPECT_TRUE(bloom.MayContain("anything"));
}

TEST(BloomFilterTest, SerializationRoundTrip) {
  BloomFilter bloom(100);
  for (int i = 0; i < 100; ++i) bloom.Add("k" + std::to_string(i));
  BloomFilter restored(Bytes(bloom.bits()));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(restored.MayContain("k" + std::to_string(i)));
  }
}

TEST_F(LsmTreeTest, BloomSkipsTableLoadsForAbsentKeys) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {1, 1, false}).ok());
  }
  // Probe far-away absent keys within the written key range: range checks
  // alone cannot skip, bloom filters must.
  const std::uint64_t reads_before = nand_.pages_read();
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(lsm_.Get(Key(i) + "x").status().IsNotFound());
  }
  const std::uint64_t reads_during = nand_.pages_read() - reads_before;
  EXPECT_GT(metrics_.CounterValue("lsm.bloom_skips"), 100u);
  // Nearly all misses avoided table loads (tables are also cached, so the
  // absolute read count stays tiny).
  EXPECT_LT(reads_during, 50u);
}

TEST_F(LsmTreeTest, BloomSurvivesManifestRoundTrip) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {static_cast<std::uint64_t>(i), 1, false}).ok());
  }
  ASSERT_TRUE(lsm_.Checkpoint(1).ok());
  LsmTree restored(&ftl_, &metrics_, Config());
  ASSERT_TRUE(restored.Restore().ok());
  const std::uint64_t skips_before = metrics_.CounterValue("lsm.bloom_skips");
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(restored.Get(Key(i) + "q").status().IsNotFound());
  }
  EXPECT_GT(metrics_.CounterValue("lsm.bloom_skips"), skips_before);
  // And present keys still resolve through the restored filters.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(restored.Get(Key(i)).ok()) << i;
  }
}

// ----------------------- Telemetry instrumentation -------------------------

TEST_F(LsmTreeTest, MemtableStallCountsAndEmitsEvents) {
  // A fresh tree wired to an event log; trigger 3 means the third flush
  // lands while L0 already holds 2 runs -> that flush is a stall.
  telemetry::EventLog log(&clock_, 64);
  LsmConfig cfg = Config();
  cfg.memtable_limit_bytes = 1 << 20;  // Flush manually, not by size.
  LsmTree tree(&ftl_, &metrics_, cfg, &log);

  for (int flush = 0; flush < 2; ++flush) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          tree.Put(Key(flush * 10 + i), {static_cast<std::uint64_t>(i), 4,
                                         false})
              .ok());
    }
    ASSERT_TRUE(tree.FlushMemTable().ok());
  }
  EXPECT_EQ(tree.memtable_stalls(), 0u);
  EXPECT_EQ(log.count(telemetry::EventType::kMemtableStall), 0u);

  ASSERT_TRUE(tree.Put(Key(99), {1, 4, false}).ok());
  ASSERT_TRUE(tree.FlushMemTable().ok());  // L0 was at 2: 2+1 >= trigger 3.
  EXPECT_EQ(tree.memtable_stalls(), 1u);
  EXPECT_EQ(metrics_.CounterValue("lsm.memtable_stalls"), 1u);
  EXPECT_EQ(log.count(telemetry::EventType::kMemtableStall), 1u);
  // The stall flush pushed L0 to the trigger, so it compacted down inline.
  EXPECT_GE(log.count(telemetry::EventType::kCompactionStart), 1u);
  EXPECT_EQ(log.count(telemetry::EventType::kCompactionStart),
            log.count(telemetry::EventType::kCompactionEnd));
  EXPECT_EQ(tree.CompactionDebtBytes(), 0u);  // Fully drained.
  EXPECT_FALSE(tree.flush_in_progress());
  EXPECT_FALSE(tree.compaction_in_progress());
}

TEST_F(LsmTreeTest, CompactionEventsCarryLevelAndBytes) {
  telemetry::EventLog log(&clock_, 256);
  LsmTree tree(&ftl_, &metrics_, Config(), &log);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false})
                    .ok());
  }
  ASSERT_TRUE(tree.FlushMemTable().ok());
  ASSERT_GE(log.count(telemetry::EventType::kCompactionStart), 1u);

  std::uint64_t end_bytes = 0;
  for (const auto& rec : log.records()) {
    if (rec.type == telemetry::EventType::kCompactionStart) {
      // a = source level, b = tables in the source level at entry.
      EXPECT_LT(rec.a, static_cast<std::uint64_t>(Config().max_levels));
      EXPECT_GE(rec.b, 1u);
    } else if (rec.type == telemetry::EventType::kCompactionEnd) {
      end_bytes += rec.b;  // b = SSTable bytes written by this compaction.
    }
  }
  EXPECT_GT(end_bytes, 0u);
  EXPECT_EQ(end_bytes, tree.compaction_bytes_written());
  EXPECT_EQ(metrics_.CounterValue("lsm.compaction_bytes_written"), end_bytes);
}

TEST_F(LsmTreeTest, CompactionDebtAppearsWhenPassBudgetExhausts) {
  // An L0 flood bigger than one 64-pass MaybeCompact can drain: trigger 100
  // runs of ~20 B encoded entries, split into 64-byte output tables. Debt
  // must become visible right after the flood flush, then drain back to
  // zero as later flushes spend their own compaction budgets.
  LsmConfig cfg;
  cfg.memtable_limit_bytes = 256;
  cfg.l0_compaction_trigger = 100;
  cfg.level_base_bytes = 256;
  cfg.sstable_target_bytes = 64;
  cfg.max_levels = 3;
  LsmTree tree(&ftl_, &metrics_, cfg);

  bool saw_debt = false;
  int i = 0;
  for (; i < 4000 && !saw_debt; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false})
                    .ok());
    saw_debt = tree.CompactionDebtBytes() > 0;
  }
  ASSERT_TRUE(saw_debt) << "flood never exceeded the compaction budget";
  for (; i < 8000 && tree.CompactionDebtBytes() > 0; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false})
                    .ok());
  }
  EXPECT_EQ(tree.CompactionDebtBytes(), 0u) << "debt never drained";
}

TEST_F(LsmTreeTest, PendingTrimTablesDropsToZeroAfterCheckpoint) {
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(
          lsm_.Put(Key(i), {static_cast<std::uint64_t>(round), 4, false})
              .ok());
    }
  }
  ASSERT_TRUE(lsm_.FlushMemTable().ok());
  // Churn replaced tables; their pages wait for a checkpoint to be trimmed.
  EXPECT_GT(lsm_.pending_trim_tables(), 0u);
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  EXPECT_EQ(lsm_.pending_trim_tables(), 0u);
}

}  // namespace
}  // namespace bandslim::lsm
