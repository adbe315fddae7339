// Ablation: DMA Log Table capacity (Section 3.3.3). The paper caps the DLT
// at the buffer entry count (512) and argues ~4 KiB of SRAM suffices. This
// bench shrinks the DLT under the backfilling policy on W(B) (many DMA
// extents) and W(M), showing when forced evictions start abandoning gaps
// and how much NAND efficiency that costs.
#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/60000);
  KvSsdOptions base = DefaultBenchOptions();
  base.driver.method = driver::TransferMethod::kAdaptive;
  base.buffer.policy = buffer::PackingPolicy::kSelectiveBackfill;
  PrintPlatform("Ablation: DMA Log Table capacity", base, args);

  std::printf("\n%8s %6s | %14s %16s %14s %12s\n", "DLT", "wl",
              "NAND I/O (K)", "forced evicts", "waste (MB)", "resp (us)");
  for (std::size_t dlt : {4u, 16u, 64u, 256u, 512u}) {
    for (int w = 0; w < 2; ++w) {
      KvSsdOptions o = base;
      o.buffer.dlt_entries = dlt;
      auto ssd = KvSsd::Open(o).value();
      auto spec = w == 0 ? workload::MakeWorkloadB(args.ops)
                         : workload::MakeWorkloadM(args.ops);
      auto r = workload::RunSerial(*ssd, workload::PutOps(spec),
                                   spec.name, "Backfill");
      const double nand_per_op =
          static_cast<double>(r.delta.nand_pages_programmed) /
          static_cast<double>(r.ops);
      const double waste_per_op =
          static_cast<double>(r.delta.buffer_wasted_bytes) /
          static_cast<double>(r.ops);
      std::printf("%8zu %6s | %14.1f %16llu %14.1f %12.1f\n", dlt,
                  spec.name.c_str(), ScaledMillions(args, nand_per_op) * 1000.0,
                  static_cast<unsigned long long>(r.delta.dlt_forced_evictions),
                  ScaledGB(args, waste_per_op) * 1000.0, r.MeanResponseUs());
    }
  }
  std::printf("\nexpectation: tiny DLTs evict pending extents, wasting gap "
              "space; the paper's 512-entry table is comfortably sized\n");
  return 0;
}
