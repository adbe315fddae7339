// Figure 10 (Section 4.2): adaptive value transfer on the mixed workloads
// W(B), W(C), W(D) and the mixgraph-style W(M). Compares Baseline,
// Piggyback and Adaptive on (a) average response time, (b) throughput,
// (c) total PCIe traffic and (d) host MMIO (doorbell) traffic.
// NAND I/O disabled.
#include <functional>
#include <vector>

#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/100000);
  KvSsdOptions base = DefaultBenchOptions();
  base.controller.nand_io_enabled = false;
  PrintPlatform("Figure 10: adaptive value transfer", base, args);
  CsvWriter csv(args);
  csv.Header("method,workload,response_us,kops,pcie_gb,mmio_mb");

  using Factory = std::function<workload::WorkloadSpec(std::uint64_t)>;
  const std::vector<std::pair<const char*, Factory>> workloads = {
      {"W(B)", [](std::uint64_t n) { return workload::MakeWorkloadB(n); }},
      {"W(C)", [](std::uint64_t n) { return workload::MakeWorkloadC(n); }},
      {"W(D)", [](std::uint64_t n) { return workload::MakeWorkloadD(n); }},
      {"W(M)", [](std::uint64_t n) { return workload::MakeWorkloadM(n); }},
  };
  const driver::TransferMethod methods[] = {driver::TransferMethod::kPrp,
                                            driver::TransferMethod::kPiggyback,
                                            driver::TransferMethod::kAdaptive};

  std::printf("\n%10s %6s | %12s %12s %14s %14s\n", "method", "wl",
              "resp (us)", "Kops/s", "PCIe (GB)", "MMIO (MB)");
  for (auto method : methods) {
    for (const auto& [name, factory] : workloads) {
      KvSsdOptions o = base;
      o.driver.method = method;
      auto ssd = KvSsd::Open(o).value();
      auto spec = factory(args.ops);
      auto r = workload::RunSerial(*ssd, workload::PutOps(spec),
                                   spec.name, driver::MethodName(method));
      const double mmio_per_op = static_cast<double>(r.delta.mmio_bytes) /
                                 static_cast<double>(r.ops);
      std::printf("%10s %6s | %12.1f %12.1f %14.3f %14.1f\n",
                  driver::MethodName(method), name, r.MeanResponseUs(),
                  r.KopsPerSec(), ScaledGB(args, r.TrafficPerOpBytes()),
                  ScaledGB(args, mmio_per_op) * 1000.0);
      csv.Row("%s,%s,%.1f,%.1f,%.3f,%.1f", driver::MethodName(method), name,
              r.MeanResponseUs(), r.KopsPerSec(),
              ScaledGB(args, r.TrafficPerOpBytes()),
              ScaledGB(args, mmio_per_op) * 1000.0);
    }
    std::printf("\n");
  }
  std::printf("paper: Adaptive best everywhere; Piggyback worst on B/C/D but "
              "~22%% better response than Baseline on W(M) with 97.9%% less "
              "traffic; MMIO explodes for Piggyback on W(C)\n");
  return 0;
}
