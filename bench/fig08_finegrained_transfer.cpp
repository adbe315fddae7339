// Figure 8 (Section 4.2): effects of fine-grained value transfer.
// Baseline (PRP page-unit DMA) vs Piggyback (NVMe-command inlining) across
// value sizes 4 B - 4 KiB: total PCIe traffic and average response time.
// NAND I/O disabled, Workload A, unique keys.
#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/100000);
  KvSsdOptions base = DefaultBenchOptions();
  base.controller.nand_io_enabled = false;
  PrintPlatform("Figure 8: fine-grained value transfer", base, args);
  CsvWriter csv(args);
  csv.Header("value_size_bytes,baseline_gb,piggyback_gb,baseline_us,piggyback_us");

  std::printf("\n%8s | %14s %14s | %14s %14s | %9s %9s\n", "vsize",
              "Base GB", "Piggy GB", "Base us", "Piggy us", "cut%", "resp x");
  const std::size_t sizes[] = {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
  for (std::size_t size : sizes) {
    workload::RunResult results[2];
    int i = 0;
    for (auto method :
         {driver::TransferMethod::kPrp, driver::TransferMethod::kPiggyback}) {
      KvSsdOptions o = base;
      o.driver.method = method;
      auto ssd = KvSsd::Open(o).value();
      auto spec = workload::MakeWorkloadA(size, args.ops);
      results[i++] = workload::RunSerial(*ssd, workload::PutOps(spec),
                                         spec.name, driver::MethodName(method));
    }
    const double cut = 100.0 * (1.0 - results[1].TrafficPerOpBytes() /
                                          results[0].TrafficPerOpBytes());
    csv.Row("%zu,%.3f,%.3f,%.2f,%.2f", size,
            ScaledGB(args, results[0].TrafficPerOpBytes()),
            ScaledGB(args, results[1].TrafficPerOpBytes()),
            results[0].MeanResponseUs(), results[1].MeanResponseUs());
    std::printf("%8s | %14.3f %14.3f | %14.2f %14.2f | %8.1f%% %9.2f\n",
                SizeLabel(size), ScaledGB(args, results[0].TrafficPerOpBytes()),
                ScaledGB(args, results[1].TrafficPerOpBytes()),
                results[0].MeanResponseUs(), results[1].MeanResponseUs(), cut,
                results[1].MeanResponseUs() / results[0].MeanResponseUs());
  }
  std::printf("\npaper: up to 97.9%% traffic cut at 4-32 B; piggyback response "
              "~0.5x baseline at <=32 B, equal at 64 B, degrading from 128 B; "
              "traffic crossover between 2 KiB and 4 KiB\n");
  return 0;
}
