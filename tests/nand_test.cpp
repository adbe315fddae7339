#include <gtest/gtest.h>

#include "nand/nand_flash.h"
#include "workload/value_gen.h"

namespace bandslim::nand {
namespace {

NandGeometry SmallGeometry() {
  NandGeometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_die = 4;
  g.pages_per_block = 8;
  return g;
}

class NandFlashTest : public ::testing::Test {
 protected:
  NandFlashTest() : nand_(SmallGeometry(), &clock_, &cost_, &metrics_) {}
  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  NandFlash nand_;
};

TEST(NandGeometryTest, Arithmetic) {
  NandGeometry g = SmallGeometry();
  EXPECT_EQ(g.dies(), 4u);
  EXPECT_EQ(g.total_blocks(), 16u);
  EXPECT_EQ(g.total_pages(), 128u);
  EXPECT_EQ(g.capacity_bytes(), 128u * kNandPageSize);
  EXPECT_EQ(g.PageIndex(3, 5), 29u);
  EXPECT_EQ(g.BlockOf(29), 3u);
  EXPECT_EQ(g.PageInBlock(29), 5u);
}

TEST(NandGeometryTest, PaperScaleDefaults) {
  NandGeometry g;  // Defaults: 4ch x 8way, 16 KiB pages (Table 1 shape).
  EXPECT_EQ(g.channels, 4u);
  EXPECT_EQ(g.ways, 8u);
  EXPECT_EQ(g.page_size, kNandPageSize);
  EXPECT_GE(g.capacity_bytes(), 32ull << 30);  // At least 32 GiB.
}

TEST_F(NandFlashTest, ProgramReadRoundTrip) {
  Bytes data = workload::MakeValue(kNandPageSize, 1, 1);
  ASSERT_TRUE(nand_.Program(5, ByteSpan(data), true).ok());
  Bytes back(kNandPageSize);
  ASSERT_TRUE(nand_.Read(5, MutByteSpan(back)).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(nand_.pages_programmed(), 1u);
  EXPECT_EQ(nand_.pages_read(), 1u);
}

TEST_F(NandFlashTest, ShortProgramZeroPads) {
  Bytes data = workload::MakeValue(100, 2, 2);
  ASSERT_TRUE(nand_.Program(0, ByteSpan(data), true).ok());
  Bytes back(kNandPageSize);
  ASSERT_TRUE(nand_.Read(0, MutByteSpan(back)).ok());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), back.begin()));
  for (std::size_t i = data.size(); i < kNandPageSize; ++i) {
    EXPECT_EQ(back[i], 0u);
  }
}

TEST_F(NandFlashTest, ProgramBeforeEraseViolation) {
  // DESIGN.md invariant #5.
  Bytes data(16);
  ASSERT_TRUE(nand_.Program(7, ByteSpan(data), false).ok());
  auto st = nand_.Program(7, ByteSpan(data), false);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(NandFlashTest, EraseEnablesReprogram) {
  Bytes data(16);
  ASSERT_TRUE(nand_.Program(7, ByteSpan(data), false).ok());
  ASSERT_TRUE(nand_.Erase(0).ok());  // Page 7 is in block 0.
  EXPECT_EQ(nand_.StateOf(7), PageState::kErased);
  EXPECT_TRUE(nand_.Program(7, ByteSpan(data), false).ok());
  EXPECT_EQ(nand_.EraseCount(0), 1u);
  EXPECT_EQ(nand_.blocks_erased(), 1u);
}

TEST_F(NandFlashTest, ReadErasedPageFails) {
  Bytes back(16);
  EXPECT_FALSE(nand_.Read(3, MutByteSpan(back)).ok());
}

TEST_F(NandFlashTest, OutOfRangeRejected) {
  Bytes data(16);
  EXPECT_FALSE(nand_.Program(1000, ByteSpan(data), false).ok());
  EXPECT_FALSE(nand_.Read(1000, MutByteSpan(data)).ok());
  EXPECT_FALSE(nand_.Erase(999).ok());
}

TEST_F(NandFlashTest, OversizedProgramRejected) {
  Bytes data(kNandPageSize + 1);
  EXPECT_FALSE(nand_.Program(0, ByteSpan(data), false).ok());
}

TEST_F(NandFlashTest, UnretainedPayloadReadsZeros) {
  Bytes data = workload::MakeValue(64, 3, 3);
  ASSERT_TRUE(nand_.Program(2, ByteSpan(data), /*retain_data=*/false).ok());
  EXPECT_FALSE(nand_.HasRetainedData(2));
  Bytes back(64, 0xFF);
  ASSERT_TRUE(nand_.Read(2, MutByteSpan(back)).ok());
  EXPECT_EQ(back, Bytes(64, 0));
}

TEST_F(NandFlashTest, LatencyAccounting) {
  Bytes data(16);
  ASSERT_TRUE(nand_.Program(0, ByteSpan(data), false).ok());
  EXPECT_EQ(clock_.Now(), cost_.nand_program_ns);
  Bytes back(16);
  ASSERT_TRUE(nand_.Read(0, MutByteSpan(back)).ok());
  EXPECT_EQ(clock_.Now(), cost_.nand_program_ns + cost_.nand_read_ns);
  ASSERT_TRUE(nand_.Erase(1).ok());
  EXPECT_EQ(clock_.Now(),
            cost_.nand_program_ns + cost_.nand_read_ns + cost_.nand_erase_ns);
}

TEST_F(NandFlashTest, EraseClearsRetainedData) {
  Bytes data = workload::MakeValue(64, 4, 4);
  ASSERT_TRUE(nand_.Program(0, ByteSpan(data), true).ok());
  ASSERT_TRUE(nand_.Erase(0).ok());
  EXPECT_FALSE(nand_.HasRetainedData(0));
}

TEST(NandFaultTest, FailedProgramUnreadableUntilErase) {
  fault::FaultConfig cfg;
  cfg.triggers.push_back({fault::FaultSite::kNandProgram, 0});
  fault::FaultPlan plan(cfg);
  sim::VirtualClock clock;
  sim::CostModel cost;
  stats::MetricsRegistry metrics;
  NandFlash nand(SmallGeometry(), &clock, &cost, &metrics, &plan);

  Bytes data = workload::MakeValue(64, 5, 5);
  EXPECT_TRUE(nand.Program(3, ByteSpan(data), true).IsMediaError());
  EXPECT_EQ(nand.StateOf(3), PageState::kProgrammed);
  EXPECT_FALSE(nand.HasRetainedData(3));
  Bytes back(64);
  EXPECT_TRUE(nand.Read(3, MutByteSpan(back)).IsMediaError());
  std::shared_ptr<const Bytes> view;
  EXPECT_TRUE(nand.ReadView(3, &view).IsMediaError());
  // Still occupied: no reprogram before erase.
  EXPECT_EQ(nand.Program(3, ByteSpan(data), true).code(), StatusCode::kIoError);

  ASSERT_TRUE(nand.Erase(0).ok());  // Page 3 is in block 0.
  EXPECT_EQ(nand.StateOf(3), PageState::kErased);
  ASSERT_TRUE(nand.Program(3, ByteSpan(data), true).ok());
  ASSERT_TRUE(nand.Read(3, MutByteSpan(back)).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(nand.program_failures(), 1u);
}

TEST_F(NandFlashTest, ViewOutlivesEraseAndReprogram) {
  Bytes old_bytes = workload::MakeValue(kNandPageSize, 6, 6);
  ASSERT_TRUE(nand_.Program(1, ByteSpan(old_bytes), true).ok());
  std::shared_ptr<const Bytes> view;
  ASSERT_TRUE(nand_.ReadView(1, &view).ok());
  ASSERT_NE(view, nullptr);

  ASSERT_TRUE(nand_.Erase(0).ok());
  EXPECT_FALSE(nand_.HasRetainedData(1));
  Bytes new_bytes = workload::MakeValue(kNandPageSize, 7, 7);
  ASSERT_TRUE(nand_.Program(1, ByteSpan(new_bytes), true).ok());

  EXPECT_EQ(*view, old_bytes);  // The view still reads what it was taken on.
  std::shared_ptr<const Bytes> fresh;
  ASSERT_TRUE(nand_.ReadView(1, &fresh).ok());
  EXPECT_EQ(*fresh, new_bytes);
}

TEST_F(NandFlashTest, RetainedPayloadsArePerPage) {
  // Only page 2 of block 0 retains its bytes; its neighbours read zeros.
  Bytes kept = workload::MakeValue(64, 8, 8);
  Bytes dropped = workload::MakeValue(64, 9, 9);
  ASSERT_TRUE(nand_.Program(1, ByteSpan(dropped), false).ok());
  ASSERT_TRUE(nand_.Program(2, ByteSpan(kept), true).ok());
  EXPECT_FALSE(nand_.HasRetainedData(1));
  EXPECT_TRUE(nand_.HasRetainedData(2));
  EXPECT_FALSE(nand_.HasRetainedData(3));
  Bytes back(64, 0xFF);
  ASSERT_TRUE(nand_.Read(1, MutByteSpan(back)).ok());
  EXPECT_EQ(back, Bytes(64, 0));
  ASSERT_TRUE(nand_.Read(2, MutByteSpan(back)).ok());
  EXPECT_EQ(back, kept);
}

// --------------------- Async (multi-die) program mode ----------------------

class AsyncNandTest : public ::testing::Test {
 protected:
  AsyncNandTest() {
    cost_.nand_async_program = true;
    nand_ = std::make_unique<NandFlash>(SmallGeometry(), &clock_, &cost_,
                                        &metrics_);
  }
  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  std::unique_ptr<NandFlash> nand_;
};

TEST_F(AsyncNandTest, ProgramDoesNotBlockIssuer) {
  Bytes data(64, 1);
  ASSERT_TRUE(nand_->Program(0, ByteSpan(data), true).ok());
  EXPECT_EQ(clock_.Now(), 0u);  // Fire-and-forget.
}

TEST_F(AsyncNandTest, ReadStallsUntilProgramLands) {
  Bytes data = workload::MakeValue(64, 1, 1);
  ASSERT_TRUE(nand_->Program(0, ByteSpan(data), true).ok());
  Bytes back(64);
  ASSERT_TRUE(nand_->Read(0, MutByteSpan(back)).ok());
  // Waited out the channel transfer + program, then paid sense + transfer.
  EXPECT_EQ(clock_.Now(), 2 * cost_.nand_channel_xfer_ns +
                              cost_.nand_program_ns + cost_.nand_read_ns);
  EXPECT_EQ(nand_->read_stalls(), 1u);
  EXPECT_EQ(nand_->read_stall_ns(),
            cost_.nand_channel_xfer_ns + cost_.nand_program_ns);
  EXPECT_EQ(back, data);
}

TEST_F(AsyncNandTest, LandedProgramCostsNoStall) {
  Bytes data(64, 1);
  ASSERT_TRUE(nand_->Program(0, ByteSpan(data), true).ok());
  clock_.Advance(2 * cost_.nand_program_ns);  // Let it land.
  Bytes back(64);
  ASSERT_TRUE(nand_->Read(0, MutByteSpan(back)).ok());
  EXPECT_EQ(nand_->read_stalls(), 0u);
}

TEST_F(AsyncNandTest, EraseClearsInFlightReadyTimes) {
  Bytes data(64, 1);
  ASSERT_TRUE(nand_->Program(0, ByteSpan(data), true).ok());
  ASSERT_TRUE(nand_->Program(1, ByteSpan(data), true).ok());
  EXPECT_GT(nand_->PageReadyAt(0), 0u);
  EXPECT_GT(nand_->PageReadyAt(1), 0u);
  ASSERT_TRUE(nand_->Erase(0).ok());  // Both pages still in flight.
  EXPECT_EQ(nand_->PageReadyAt(0), 0u);
  EXPECT_EQ(nand_->PageReadyAt(1), 0u);

  // A reprogram books a fresh ready time; a read waits it out, then clears it.
  ASSERT_TRUE(nand_->Program(0, ByteSpan(data), true).ok());
  const sim::Nanoseconds ready = nand_->PageReadyAt(0);
  EXPECT_GT(ready, clock_.Now());
  Bytes back(64);
  ASSERT_TRUE(nand_->Read(0, MutByteSpan(back)).ok());
  EXPECT_EQ(nand_->read_stalls(), 1u);
  EXPECT_EQ(nand_->PageReadyAt(0), 0u);
  EXPECT_EQ(back, data);
}

TEST_F(AsyncNandTest, DifferentDiesRunInParallel) {
  // SmallGeometry: 2ch x 2way = 4 dies, blocks stripe across them.
  // Blocks 0 and 1 live on different dies on different channels: both
  // programs land one transfer+program from now, not two.
  const auto& geom = nand_->geometry();
  Bytes data(16, 1);
  ASSERT_TRUE(nand_->Program(geom.PageIndex(0, 0), ByteSpan(data), false).ok());
  ASSERT_TRUE(nand_->Program(geom.PageIndex(1, 0), ByteSpan(data), false).ok());
  Bytes back(16);
  ASSERT_TRUE(nand_->Read(geom.PageIndex(1, 0), MutByteSpan(back)).ok());
  EXPECT_EQ(clock_.Now(), 2 * cost_.nand_channel_xfer_ns +
                              cost_.nand_program_ns + cost_.nand_read_ns);
}

TEST_F(AsyncNandTest, SameDieSerializes) {
  const auto& geom = nand_->geometry();
  const std::uint64_t dies = geom.dies();
  Bytes data(16, 1);
  // Blocks 0 and `dies` map to the same die: their programs queue. The
  // second transfer overlaps the first program, so only one transfer is on
  // the critical path into the die.
  ASSERT_TRUE(nand_->Program(geom.PageIndex(0, 0), ByteSpan(data), false).ok());
  ASSERT_TRUE(
      nand_->Program(geom.PageIndex(dies, 0), ByteSpan(data), false).ok());
  Bytes back(16);
  ASSERT_TRUE(nand_->Read(geom.PageIndex(dies, 0), MutByteSpan(back)).ok());
  EXPECT_EQ(clock_.Now(), 2 * cost_.nand_channel_xfer_ns +
                              2 * cost_.nand_program_ns + cost_.nand_read_ns);
}

}  // namespace
}  // namespace bandslim::nand
