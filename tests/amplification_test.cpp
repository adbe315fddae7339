// Paper-anchor tests: the headline quantitative observations of BandSlim
// must hold on the simulated stack (Sections 2.4 and 4.2-4.3). These are
// small-scale versions of the bench harnesses, pinned as regressions.
#include <gtest/gtest.h>

#include "core/kvssd.h"
#include "workload/runner.h"
#include "workload/workloads.h"

namespace bandslim {
namespace {

KvSsdOptions BenchOptions(driver::TransferMethod method,
                          buffer::PackingPolicy policy, bool nand_io) {
  KvSsdOptions o;
  o.geometry.channels = 4;
  o.geometry.ways = 8;
  o.geometry.blocks_per_die = 64;
  o.geometry.pages_per_block = 64;
  o.driver.method = method;
  o.buffer.policy = policy;
  o.controller.nand_io_enabled = nand_io;
  o.retain_payloads = false;
  return o;
}

workload::RunResult RunSweep(driver::TransferMethod method,
                        buffer::PackingPolicy policy, bool nand_io,
                        std::size_t value_size, std::uint64_t ops) {
  auto ssd = KvSsd::Open(BenchOptions(method, policy, nand_io)).value();
  auto spec = workload::MakeWorkloadA(value_size, ops);
  return workload::RunSerial(*ssd, workload::PutOps(spec), spec.name, "anchor");
}

using driver::TransferMethod;
using buffer::PackingPolicy;

TEST(AmplificationAnchors, BaselineTafAt32BytesIs130) {
  // Figure 3(b): a 32 B PUT moves ~130x its size across PCIe.
  auto r = RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 32, 2000);
  EXPECT_NEAR(r.TrafficAmplification(), 130.0, 2.0);
}

TEST(AmplificationAnchors, BaselineTafHalvesPerDoubling) {
  // Figure 3(b): TAF 130 / 65 / 32.5 / 16.3 / 8.1 / 4.1.
  const double taf32 =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 32, 1000)
          .TrafficAmplification();
  const double taf64 =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 64, 1000)
          .TrafficAmplification();
  const double taf1k =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 1024, 1000)
          .TrafficAmplification();
  EXPECT_NEAR(taf32 / taf64, 2.0, 0.05);
  EXPECT_NEAR(taf1k, 4.1, 0.2);
}

TEST(AmplificationAnchors, BaselineTrafficStepsAt4KBoundaries) {
  // Figure 3(a): traffic is flat within (4k(n-1), 4kn] and doubles across.
  auto t = [&](std::size_t size) {
    return RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, size, 500)
        .TrafficPerOpBytes();
  };
  EXPECT_DOUBLE_EQ(t(1024), t(4096));
  EXPECT_NEAR(t(4097) - t(4096), kMemPageSize, 1.0);
  EXPECT_DOUBLE_EQ(t(8192), t(5000));
}

TEST(AmplificationAnchors, PiggybackCutsTrafficBy98PercentAt32B) {
  // Section 4.2: "Piggyback reduces traffic by up to 97.9%".
  const double base =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 32, 2000)
          .TrafficPerOpBytes();
  const double piggy =
      RunSweep(TransferMethod::kPiggyback, PackingPolicy::kBlock, false, 32, 2000)
          .TrafficPerOpBytes();
  const double reduction = 1.0 - piggy / base;
  EXPECT_NEAR(reduction, 0.979, 0.005);
}

TEST(AmplificationAnchors, PiggybackResponseHalfOfBaselineAt32B) {
  // Figure 8: "approximately a half of the Baseline for 32 bytes and below".
  const double base =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 32, 1000)
          .MeanResponseUs();
  const double piggy =
      RunSweep(TransferMethod::kPiggyback, PackingPolicy::kBlock, false, 32, 1000)
          .MeanResponseUs();
  EXPECT_NEAR(piggy / base, 0.5, 0.17);
}

TEST(AmplificationAnchors, PiggybackResponseEqualAt64B) {
  // Figure 8: two commands for 64 B make the response "almost identical".
  const double base =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 64, 1000)
          .MeanResponseUs();
  const double piggy =
      RunSweep(TransferMethod::kPiggyback, PackingPolicy::kBlock, false, 64, 1000)
          .MeanResponseUs();
  EXPECT_NEAR(piggy / base, 1.0, 0.05);
}

TEST(AmplificationAnchors, PiggybackDegradesFrom128B) {
  // Figure 8: serialized trailing commands hurt from 128 B on.
  const double base =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 128, 1000)
          .MeanResponseUs();
  const double piggy =
      RunSweep(TransferMethod::kPiggyback, PackingPolicy::kBlock, false, 128, 1000)
          .MeanResponseUs();
  EXPECT_GT(piggy, base * 1.2);
}

TEST(AmplificationAnchors, PiggybackTrafficCrossoverNear2K) {
  // Figure 8: piggyback traffic approaches Baseline at 2 KiB and exceeds
  // it at 4 KiB.
  const double base2k =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 2048, 500)
          .TrafficPerOpBytes();
  const double piggy2k =
      RunSweep(TransferMethod::kPiggyback, PackingPolicy::kBlock, false, 2048, 500)
          .TrafficPerOpBytes();
  EXPECT_LT(piggy2k, base2k);
  EXPECT_GT(piggy2k, 0.6 * base2k);
  const double base4k =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 4096, 500)
          .TrafficPerOpBytes();
  const double piggy4k =
      RunSweep(TransferMethod::kPiggyback, PackingPolicy::kBlock, false, 4096, 500)
          .TrafficPerOpBytes();
  EXPECT_GT(piggy4k, base4k);
}

TEST(AmplificationAnchors, WafMirrorsTafAt32B) {
  // Figure 4(b): WAF ~= TAF (129.9 at 32 B) including LSM compaction I/O.
  auto r = RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, true, 32, 4000);
  EXPECT_NEAR(r.WriteAmplification(), 130.0, 8.0);
}

TEST(AmplificationAnchors, PackingCutsNandWritesBy98Percent) {
  // Figure 11(a): fine-grained packing reduces NAND writes by 98.1 % for
  // 4-32 B values.
  auto block = RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, true, 32, 4000);
  auto packed = RunSweep(TransferMethod::kPrp, PackingPolicy::kAll, true, 32, 4000);
  const double reduction =
      1.0 - static_cast<double>(packed.delta.nand_pages_programmed) /
                static_cast<double>(block.delta.nand_pages_programmed);
  EXPECT_GT(reduction, 0.95);
}

TEST(AmplificationAnchors, PackingCutsWriteResponseByTwoThirds) {
  // Figure 11(b): at 32 B the response time drops by ~67.6 %.
  auto block = RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, true, 32, 4000);
  auto packed = RunSweep(TransferMethod::kPrp, PackingPolicy::kAll, true, 32, 4000);
  const double reduction = 1.0 - packed.MeanResponseUs() / block.MeanResponseUs();
  EXPECT_NEAR(reduction, 0.676, 0.06);
}

TEST(AmplificationAnchors, PiggyPackAddsAFewPercentMore) {
  // Figure 11(b): piggyback + packing shaves an extra ~4 % at 32 B.
  auto packed = RunSweep(TransferMethod::kPrp, PackingPolicy::kAll, true, 32, 4000);
  auto piggypack =
      RunSweep(TransferMethod::kPiggyback, PackingPolicy::kAll, true, 32, 4000);
  EXPECT_LT(piggypack.MeanResponseUs(), packed.MeanResponseUs());
  const double extra =
      1.0 - piggypack.MeanResponseUs() / packed.MeanResponseUs();
  EXPECT_NEAR(extra, 0.06, 0.05);
}

TEST(AmplificationAnchors, HybridBeatsBaselineTrafficUpTo6K) {
  // Figure 9(a): hybrid is traffic-optimal for 4 KiB + trailing <= ~2 KiB.
  for (std::size_t trailing : {32u, 512u, 2048u}) {
    const double base = RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false,
                            4096 + trailing, 500)
                            .TrafficPerOpBytes();
    const double hybrid = RunSweep(TransferMethod::kHybrid, PackingPolicy::kBlock,
                              false, 4096 + trailing, 500)
                              .TrafficPerOpBytes();
    EXPECT_LT(hybrid, base) << "trailing " << trailing;
  }
  // ... but loses at +4 KiB trailing.
  const double base8k =
      RunSweep(TransferMethod::kPrp, PackingPolicy::kBlock, false, 8192, 500)
          .TrafficPerOpBytes();
  const double hybrid8k =
      RunSweep(TransferMethod::kHybrid, PackingPolicy::kBlock, false, 8191, 500)
          .TrafficPerOpBytes();
  EXPECT_GT(hybrid8k, base8k * 0.95);
}

}  // namespace
}  // namespace bandslim
