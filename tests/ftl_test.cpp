#include <gtest/gtest.h>

#include <map>

#include "core/kvssd.h"
#include "ftl/ftl.h"
#include "workload/value_gen.h"

namespace bandslim::ftl {
namespace {

nand::NandGeometry TinyGeometry() {
  nand::NandGeometry g;
  g.channels = 1;
  g.ways = 1;
  g.blocks_per_die = 16;
  g.pages_per_block = 8;
  return g;
}

class FtlTest : public ::testing::Test {
 protected:
  FtlTest()
      : nand_(TinyGeometry(), &clock_, &cost_, &metrics_),
        ftl_(&nand_, &metrics_) {}

  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  nand::NandFlash nand_;
  PageFtl ftl_;
};

TEST_F(FtlTest, WriteReadRoundTrip) {
  Bytes data = workload::MakeValue(kNandPageSize, 1, 1);
  ASSERT_TRUE(ftl_.Write(42, ByteSpan(data), Stream::kVlog, true).ok());
  EXPECT_TRUE(ftl_.IsMapped(42));
  Bytes back(kNandPageSize);
  ASSERT_TRUE(ftl_.Read(42, MutByteSpan(back)).ok());
  EXPECT_EQ(back, data);
}

TEST_F(FtlTest, ReadUnmappedFails) {
  Bytes back(16);
  auto st = ftl_.Read(9, MutByteSpan(back));
  EXPECT_TRUE(st.IsNotFound());
}

TEST_F(FtlTest, OverwriteRemapsOutOfPlace) {
  Bytes v1 = workload::MakeValue(64, 1, 1);
  Bytes v2 = workload::MakeValue(64, 2, 2);
  ASSERT_TRUE(ftl_.Write(7, ByteSpan(v1), Stream::kVlog, true).ok());
  ASSERT_TRUE(ftl_.Write(7, ByteSpan(v2), Stream::kVlog, true).ok());
  Bytes back(64);
  ASSERT_TRUE(ftl_.Read(7, MutByteSpan(back)).ok());
  EXPECT_EQ(back, v2);
  EXPECT_EQ(nand_.pages_programmed(), 2u);  // Both physical writes happened.
  EXPECT_EQ(ftl_.mapped_pages(), 1u);
}

TEST_F(FtlTest, TrimUnmaps) {
  Bytes v(16);
  ASSERT_TRUE(ftl_.Write(5, ByteSpan(v), Stream::kVlog, false).ok());
  ASSERT_TRUE(ftl_.Trim(5).ok());
  EXPECT_FALSE(ftl_.IsMapped(5));
  EXPECT_TRUE(ftl_.Trim(5).ok());  // Idempotent.
}

TEST_F(FtlTest, StreamsUseSeparateBlocks) {
  Bytes v(16);
  ASSERT_TRUE(ftl_.Write(1, ByteSpan(v), Stream::kVlog, false).ok());
  ASSERT_TRUE(ftl_.Write(1ull << 40, ByteSpan(v), Stream::kLsm, false).ok());
  EXPECT_EQ(metrics_.CounterValue("ftl.programs.vlog"), 1u);
  EXPECT_EQ(metrics_.CounterValue("ftl.programs.lsm"), 1u);
}

TEST_F(FtlTest, GarbageCollectionReclaimsRewrittenPages) {
  // Device: 16 blocks x 8 pages = 128 pages. Repeatedly rewrite a small
  // logical set so most physical pages become garbage; GC must keep up.
  std::map<std::uint64_t, Bytes> model;
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
      Bytes v = workload::MakeValue(64, static_cast<std::uint64_t>(round), lpn);
      ASSERT_TRUE(ftl_.Write(lpn, ByteSpan(v), Stream::kVlog, true).ok())
          << "round " << round << " lpn " << lpn;
      model[lpn] = v;
    }
  }
  EXPECT_GT(ftl_.gc_runs(), 0u);
  EXPECT_GT(ftl_.gc_relocated_pages() + 1, 0u);
  for (const auto& [lpn, expected] : model) {
    Bytes back(64);
    ASSERT_TRUE(ftl_.Read(lpn, MutByteSpan(back)).ok());
    EXPECT_EQ(back, expected) << "lpn " << lpn;
  }
}

TEST_F(FtlTest, FillsToCapacityThenFails) {
  // All-unique logical pages: nothing is garbage, so the device eventually
  // reports out of space instead of looping in GC.
  Bytes v(16);
  std::uint64_t written = 0;
  Status st;
  for (std::uint64_t lpn = 0; lpn < 200; ++lpn) {
    st = ftl_.Write(lpn, ByteSpan(v), Stream::kVlog, false);
    if (!st.ok()) break;
    ++written;
  }
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfSpace);
  // Capacity minus the GC reserve and partially-filled active blocks.
  EXPECT_GT(written, 90u);
  EXPECT_LT(written, 128u);
}

TEST_F(FtlTest, GcPreservesUnretainedFlag) {
  // Pages written with retain=false must stay zero-reads after relocation.
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
      Bytes v = workload::MakeValue(64, 9, lpn);
      ASSERT_TRUE(ftl_.Write(lpn, ByteSpan(v), Stream::kVlog, false).ok());
    }
  }
  ASSERT_GT(ftl_.gc_runs(), 0u);
  Bytes back(64, 0xFF);
  ASSERT_TRUE(ftl_.Read(3, MutByteSpan(back)).ok());
  EXPECT_EQ(back, Bytes(64, 0));
}

TEST_F(FtlTest, LpnOutsidePartitionsFailsCleanly) {
  Bytes v(16, 1);
  const std::uint64_t outside[] = {
      kLpnSpaceEnd,                       // Past the manifest partition.
      ~0ULL,                              // Far outside.
      kMaxPartitionPages,                 // vLog index past 30 bits.
      kLsmLpnBase + kMaxPartitionPages,   // SSTable index past 30 bits.
      kManifestLpn + kMaxPartitionPages,  // Manifest index past 30 bits.
  };
  for (const std::uint64_t lpn : outside) {
    EXPECT_EQ(ftl_.Write(lpn, ByteSpan(v), Stream::kVlog, true).code(),
              StatusCode::kInvalidArgument)
        << lpn;
    Bytes back(16);
    EXPECT_TRUE(ftl_.Read(lpn, MutByteSpan(back)).IsNotFound()) << lpn;
    std::shared_ptr<const Bytes> view;
    EXPECT_TRUE(ftl_.ReadView(lpn, &view).IsNotFound()) << lpn;
    EXPECT_FALSE(ftl_.IsMapped(lpn)) << lpn;
    EXPECT_TRUE(ftl_.Trim(lpn).ok()) << lpn;
  }
  EXPECT_EQ(nand_.pages_programmed(), 0u);  // Rejected before any program.
  EXPECT_EQ(ftl_.mapped_pages(), 0u);
  // The last index of each partition is still inside the namespace; reading
  // past the written part of a map is a plain miss.
  Bytes back(16);
  EXPECT_TRUE(ftl_.Read(kLsmLpnBase - 1, MutByteSpan(back)).IsNotFound());
  EXPECT_FALSE(ftl_.IsMapped(kManifestLpn + kMaxPartitionPages - 1));
}

TEST(FtlGeometryTest, OpenRejectsGeometryPast32BitPpns) {
  KvSsdOptions o;
  o.geometry.channels = 1;
  o.geometry.ways = 1;
  o.geometry.blocks_per_die = 1u << 24;
  o.geometry.pages_per_block = 256;  // Exactly 2^32 pages.
  auto r = KvSsd::Open(o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  o.geometry.channels = 0xFFFFFFFFu;  // Product overflows 64 bits.
  o.geometry.ways = 0xFFFFFFFFu;
  o.geometry.blocks_per_die = 0xFFFFFFFFu;
  o.geometry.pages_per_block = 0xFFFFFFFFu;
  r = KvSsd::Open(o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FtlTest, MappedPagesExactAcrossPartitionsAndGc) {
  // Each block gets one cold page (cycling through the three partitions)
  // and seven rewrites of hot pages, so every GC victim still holds a valid
  // page to relocate. A model of live lpns must match mapped_pages().
  std::map<std::uint64_t, Bytes> model;
  auto write = [&](std::uint64_t lpn, std::uint64_t seed) {
    Bytes v = workload::MakeValue(64, seed, lpn);
    ASSERT_TRUE(ftl_.Write(lpn, ByteSpan(v), Stream::kVlog, true).ok()) << lpn;
    model[lpn] = v;
  };
  const std::uint64_t hot[] = {0, kLsmLpnBase, kManifestLpn};
  for (std::uint64_t i = 0; i < 40; ++i) {
    write(kLpnPartitionBase[i % 3] + 100 + i, i);
    for (std::uint64_t h = 0; h < 7; ++h) write(hot[h % 3], i * 7 + h);
    ASSERT_EQ(ftl_.mapped_pages(), model.size()) << "block " << i;
    if (i % 5 == 4) {  // Trim the oldest cold page still live.
      const std::uint64_t lpn = kLpnPartitionBase[(i - 4) % 3] + 100 + i - 4;
      ASSERT_TRUE(ftl_.Trim(lpn).ok());
      model.erase(lpn);
      ASSERT_EQ(ftl_.mapped_pages(), model.size()) << "trim " << lpn;
    }
  }
  EXPECT_GT(ftl_.gc_relocated_pages(), 0u);
  for (const auto& [lpn, expected] : model) {
    Bytes back(64);
    ASSERT_TRUE(ftl_.Read(lpn, MutByteSpan(back)).ok()) << lpn;
    EXPECT_EQ(back, expected) << lpn;
  }
}

TEST_F(FtlTest, ViewSurvivesGcRelocationAndErase) {
  // The first write lands on block 0, page 0.
  Bytes first = workload::MakeValue(kNandPageSize, 3, 3);
  ASSERT_TRUE(ftl_.Write(50, ByteSpan(first), Stream::kVlog, true).ok());
  std::shared_ptr<const Bytes> view;
  ASSERT_TRUE(ftl_.ReadView(50, &view).ok());
  ASSERT_NE(view, nullptr);
  // Hot rewrites leave block 0 with one valid page (lpn 50); cold pages keep
  // every later block at one valid page too, so greedy GC picks block 0
  // first, relocates lpn 50 and erases the block the view was taken on.
  for (std::uint64_t i = 0; i < 40 && nand_.EraseCount(0) == 0; ++i) {
    for (std::uint64_t h = 0; h < 7; ++h) {
      Bytes v = workload::MakeValue(64, i, h);
      ASSERT_TRUE(ftl_.Write(0, ByteSpan(v), Stream::kVlog, true).ok());
    }
    Bytes cold = workload::MakeValue(64, i, 1000);
    ASSERT_TRUE(ftl_.Write(100 + i, ByteSpan(cold), Stream::kVlog, true).ok());
  }
  ASSERT_GT(nand_.EraseCount(0), 0u);
  ASSERT_GT(ftl_.gc_relocated_pages(), 0u);
  EXPECT_EQ(*view, first);
  std::shared_ptr<const Bytes> fresh;
  ASSERT_TRUE(ftl_.ReadView(50, &fresh).ok());
  EXPECT_EQ(*fresh, first);
}

}  // namespace
}  // namespace bandslim::ftl
