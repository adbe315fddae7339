// Driver tests: transfer-method decisions, command counts per method, and
// the threshold calibration benchmark from Section 4.1.
#include <gtest/gtest.h>

#include "core/kvssd.h"
#include "driver/calibration.h"
#include "workload/value_gen.h"

namespace bandslim::driver {
namespace {

KvSsdOptions SmallOptions() {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 128;
  o.geometry.pages_per_block = 32;
  o.buffer.num_entries = 16;
  o.buffer.dlt_entries = 16;
  return o;
}

std::unique_ptr<KvSsd> OpenWith(TransferMethod method,
                                bool nand_io = true) {
  KvSsdOptions o = SmallOptions();
  o.driver.method = method;
  o.controller.nand_io_enabled = nand_io;
  auto r = KvSsd::Open(o);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(DriverDecisionTest, AdaptiveThresholds) {
  auto ssd = OpenWith(TransferMethod::kAdaptive);
  auto& drv = *ssd->Hooks().driver;
  using D = KvDriver::Decision;
  // <=128 B piggybacks (the paper's threshold1 with alpha = 1).
  EXPECT_EQ(drv.Decide(8), D::kPiggyback);
  EXPECT_EQ(drv.Decide(128), D::kPiggyback);
  EXPECT_EQ(drv.Decide(129), D::kPrp);
  EXPECT_EQ(drv.Decide(4096), D::kPrp);
  // Sub-page remainder <= 56 B goes hybrid.
  EXPECT_EQ(drv.Decide(4096 + 32), D::kHybrid);
  EXPECT_EQ(drv.Decide(4096 + 56), D::kHybrid);
  EXPECT_EQ(drv.Decide(4096 + 57), D::kPrp);
  EXPECT_EQ(drv.Decide(8192), D::kPrp);
  EXPECT_EQ(drv.Decide(8192 + 4), D::kHybrid);
}

TEST(DriverDecisionTest, AlphaBetaScaleThresholds) {
  KvSsdOptions o = SmallOptions();
  o.driver.method = TransferMethod::kAdaptive;
  o.driver.alpha = 2.0;  // Traffic-prioritizing user (Section 3.2).
  o.driver.beta = 4.0;
  auto ssd = KvSsd::Open(o).value();
  auto& drv = *ssd->Hooks().driver;
  using D = KvDriver::Decision;
  EXPECT_EQ(drv.Decide(256), D::kPiggyback);   // 256 <= 2*128.
  EXPECT_EQ(drv.Decide(257), D::kPrp);
  EXPECT_EQ(drv.Decide(4096 + 224), D::kHybrid);  // 224 <= 4*56.
  EXPECT_EQ(drv.Decide(4096 + 225), D::kPrp);
}

TEST(DriverDecisionTest, FixedMethods) {
  using D = KvDriver::Decision;
  EXPECT_EQ(OpenWith(TransferMethod::kPrp)->Hooks().driver->Decide(8), D::kPrp);
  EXPECT_EQ(OpenWith(TransferMethod::kPiggyback)->Hooks().driver->Decide(8192),
            D::kPiggyback);
  auto hybrid = OpenWith(TransferMethod::kHybrid);
  EXPECT_EQ(hybrid->Hooks().driver->Decide(4097), D::kHybrid);
  EXPECT_EQ(hybrid->Hooks().driver->Decide(4096), D::kPrp);  // No remainder.
  EXPECT_EQ(hybrid->Hooks().driver->Decide(100), D::kPrp);   // No full page.
}

TEST(DriverCommandCountTest, PiggybackCommandsPerPut) {
  auto ssd = OpenWith(TransferMethod::kPiggyback, /*nand_io=*/false);
  const struct {
    std::size_t size;
    std::uint64_t cmds;
  } cases[] = {{8, 1}, {35, 1}, {36, 2}, {91, 2}, {128, 3}, {1024, 19}};
  std::uint64_t expected_total = 0;
  for (const auto& c : cases) {
    Bytes v(c.size, 1);
    ASSERT_TRUE(ssd->Put("k" + std::to_string(c.size), ByteSpan(v)).ok());
    expected_total += c.cmds;
    EXPECT_EQ(ssd->GetStats().commands_submitted, expected_total)
        << "size " << c.size;
  }
}

TEST(DriverCommandCountTest, PrpIsAlwaysOneCommand) {
  auto ssd = OpenWith(TransferMethod::kPrp, false);
  for (std::size_t size : {8u, 4096u, 5000u, 16384u}) {
    Bytes v(size, 1);
    ASSERT_TRUE(ssd->Put("k" + std::to_string(size), ByteSpan(v)).ok());
  }
  EXPECT_EQ(ssd->GetStats().commands_submitted, 4u);
}

TEST(DriverCommandCountTest, HybridCommands) {
  auto ssd = OpenWith(TransferMethod::kHybrid, false);
  Bytes v(4096 + 32, 1);  // 1 write command + 1 trailing transfer.
  ASSERT_TRUE(ssd->Put("h", ByteSpan(v)).ok());
  EXPECT_EQ(ssd->GetStats().commands_submitted, 2u);
  // DMA moved exactly one page.
  EXPECT_EQ(ssd->GetStats().dma_h2d_bytes, kMemPageSize);
}

TEST(DriverTest, PutGetRoundTripAllMethods) {
  for (TransferMethod m :
       {TransferMethod::kPrp, TransferMethod::kPiggyback,
        TransferMethod::kHybrid, TransferMethod::kAdaptive}) {
    auto ssd = OpenWith(m);
    for (std::size_t size : {1u, 35u, 36u, 100u, 4095u, 4096u, 4100u, 9000u}) {
      const std::string key = "k" + std::to_string(size);
      Bytes v = workload::MakeValue(size, 11, size);
      ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok())
          << MethodName(m) << " size " << size;
      auto back = ssd->Get(key);
      ASSERT_TRUE(back.ok()) << MethodName(m) << " size " << size;
      EXPECT_EQ(back.value(), v) << MethodName(m) << " size " << size;
    }
  }
}

TEST(DriverTest, KeyValidation) {
  auto ssd = OpenWith(TransferMethod::kAdaptive);
  Bytes v(8, 1);
  EXPECT_FALSE(ssd->Put("", ByteSpan(v)).ok());
  EXPECT_FALSE(ssd->Put(std::string(17, 'k'), ByteSpan(v)).ok());
  EXPECT_FALSE(ssd->Put("ok", ByteSpan()).ok());
  EXPECT_FALSE(ssd->Get("").ok());
}

TEST(DriverTest, OversizeValueRejectedBeforeAnyCommand) {
  auto ssd = OpenWith(TransferMethod::kAdaptive);
  Bytes big(kMaxValueSize + 1, 3);
  const Status st = ssd->Put("big", ByteSpan(big));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  const std::vector<KvDriver::KvPair> batch = {{"a", big}};
  const Status bst = ssd->PutBatch(batch);
  EXPECT_EQ(bst.code(), StatusCode::kInvalidArgument) << bst.ToString();
  EXPECT_EQ(ssd->GetStats().commands_submitted, 0u);
  // The bound itself is a legal value on a device whose page-buffer window
  // (default: 512 x 16 KiB) can stage it.
  KvSsdOptions o = SmallOptions();
  o.buffer = buffer::BufferConfig{};
  auto opened = KvSsd::Open(o);
  ASSERT_TRUE(opened.ok());
  ssd = std::move(opened).value();
  Bytes max(kMaxValueSize, 4);
  const Status mst = ssd->Put("max", ByteSpan(max));
  ASSERT_TRUE(mst.ok()) << mst.ToString();
  auto back = ssd->Get("max");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), max);
}

TEST(DriverTest, DeleteAndExists) {
  auto ssd = OpenWith(TransferMethod::kAdaptive);
  Bytes v(40, 2);
  ASSERT_TRUE(ssd->Put("k", ByteSpan(v)).ok());
  auto ex = ssd->Exists("k");
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex.value(), 40u);
  ASSERT_TRUE(ssd->Delete("k").ok());
  EXPECT_TRUE(ssd->Get("k").status().IsNotFound());
  EXPECT_FALSE(ssd->Exists("k").ok());
}

TEST(DriverTest, IteratorScansInOrder) {
  auto ssd = OpenWith(TransferMethod::kAdaptive);
  for (int i = 0; i < 50; ++i) {
    char key[8];
    std::snprintf(key, sizeof key, "%03d", i * 2);
    Bytes v = workload::MakeValue(24, 3, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok());
  }
  auto iter = ssd->Seek("025");
  ASSERT_TRUE(iter.ok());
  int seen = 0;
  std::string prev = "025";
  for (auto& it = iter.value(); it.Valid(); ) {
    EXPECT_LE(prev, it.key());
    prev = it.key();
    ++seen;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(seen, 37);  // Keys 026..098 step 2.
}

TEST(DriverTest, IteratorValueContents) {
  auto ssd = OpenWith(TransferMethod::kAdaptive);
  Bytes v = workload::MakeValue(5000, 4, 4);
  ASSERT_TRUE(ssd->Put("only", ByteSpan(v)).ok());
  auto iter = ssd->Seek("");
  ASSERT_TRUE(iter.ok());
  ASSERT_TRUE(iter.value().Valid());
  EXPECT_EQ(iter.value().key(), "only");
  EXPECT_EQ(iter.value().value(), v);
  ASSERT_TRUE(iter.value().Next().ok());
  EXPECT_FALSE(iter.value().Valid());
}

TEST(CalibrationTest, RecoversPaperThresholds) {
  // With the default cost model the crossovers land exactly where the paper
  // put them: piggyback loses at 128 B, hybrid wins up to 56 trailing bytes.
  auto thresholds = CalibrateThresholds(SmallOptions(),
                                        CalibrationConfig{.ops_per_point = 16});
  ASSERT_TRUE(thresholds.ok());
  EXPECT_EQ(thresholds.value().threshold1, 128u);
  EXPECT_EQ(thresholds.value().threshold2, 56u);
}

TEST(CalibrationTest, TracksCostModelChanges) {
  // Make DMA 3x more expensive: piggybacking stays competitive longer, so
  // threshold1 must move up.
  KvSsdOptions o = SmallOptions();
  o.cost.dma_page_ns = 3 * o.cost.cmd_round_trip_ns;
  auto thresholds = CalibrateThresholds(o, CalibrationConfig{.ops_per_point = 16});
  ASSERT_TRUE(thresholds.ok());
  EXPECT_GT(thresholds.value().threshold1, 128u);
}

}  // namespace
}  // namespace bandslim::driver
