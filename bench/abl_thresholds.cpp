// Ablation: the adaptive-transfer coefficients alpha and beta (Section 3.2).
// alpha scales threshold1 (piggyback/DMA crossover), beta scales threshold2
// (hybrid remainder). Larger coefficients trade response time for PCIe
// traffic — this bench quantifies that trade on W(D) and W(M), and prints
// the thresholds the calibration benchmark derives.
#include "bench_util.h"
#include "driver/calibration.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/60000);
  KvSsdOptions base = DefaultBenchOptions();
  base.driver.method = driver::TransferMethod::kAdaptive;
  base.controller.nand_io_enabled = false;
  PrintPlatform("Ablation: adaptive transfer thresholds (alpha/beta sweep)",
                base, args);

  auto thresholds = driver::CalibrateThresholds(base);
  if (thresholds.ok()) {
    std::printf("\ncalibration benchmark (Sec 4.1): threshold1 = %u B, "
                "threshold2 = %u B (paper: 128 / 56)\n",
                thresholds.value().threshold1, thresholds.value().threshold2);
  }

  std::printf("\n%7s %7s %14s | %12s %12s %14s\n", "alpha", "beta", "wl",
              "resp (us)", "Kops/s", "PCIe (GB)");
  for (double alpha : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    for (double beta : {1.0, 8.0}) {
      // W(D)/W(M) exercise alpha (sub-4K values); the fillseq run at
      // 4 KiB + 256 B exercises beta (sub-page remainder handling).
      for (int w = 0; w < 3; ++w) {
        KvSsdOptions o = base;
        o.driver.alpha = alpha;
        o.driver.beta = beta;
        auto ssd = KvSsd::Open(o).value();
        auto spec = w == 0   ? workload::MakeWorkloadD(args.ops)
                    : w == 1 ? workload::MakeWorkloadM(args.ops)
                             : workload::MakeWorkloadA(4096 + 256, args.ops);
        auto r = workload::RunSerial(*ssd, workload::PutOps(spec),
                                     spec.name, "Adaptive");
        std::printf("%7.1f %7.1f %14s | %12.1f %12.1f %14.3f\n", alpha, beta,
                    spec.name.c_str(), r.MeanResponseUs(), r.KopsPerSec(),
                    ScaledGB(args, r.TrafficPerOpBytes()));
      }
    }
  }
  std::printf("\nexpectation: alpha/beta = 1 minimizes response; larger "
              "coefficients shed PCIe traffic at a response-time cost "
              "(Section 3.2's user preference knob)\n");
  return 0;
}
