// Figure 12 (Section 4.3): comparison of in-device packing policies —
// Block (baseline), All Packing, Selective Packing, Selective Packing with
// Backfilling — under the adaptive value transfer, NAND I/O enabled, on
// W(B), W(C), W(D) and W(M). Reports (a) average response time,
// (b) throughput, (c) NAND page writes and (d) average device memcpy time.
#include <functional>
#include <vector>

#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/60000);
  KvSsdOptions base = DefaultBenchOptions();
  base.driver.method = driver::TransferMethod::kAdaptive;
  PrintPlatform("Figure 12: in-device packing policies", base, args);
  CsvWriter csv(args);
  csv.Header("policy,workload,response_us,kops,nand_io_k,memcpy_us,waste_mb");

  using Factory = std::function<workload::WorkloadSpec(std::uint64_t)>;
  const std::vector<std::pair<const char*, Factory>> workloads = {
      {"W(B)", [](std::uint64_t n) { return workload::MakeWorkloadB(n); }},
      {"W(C)", [](std::uint64_t n) { return workload::MakeWorkloadC(n); }},
      {"W(D)", [](std::uint64_t n) { return workload::MakeWorkloadD(n); }},
      {"W(M)", [](std::uint64_t n) { return workload::MakeWorkloadM(n); }},
  };
  const buffer::PackingPolicy policies[] = {
      buffer::PackingPolicy::kBlock, buffer::PackingPolicy::kAll,
      buffer::PackingPolicy::kSelective,
      buffer::PackingPolicy::kSelectiveBackfill};

  std::printf("\n%9s %6s | %11s %9s %14s %14s %12s\n", "policy", "wl",
              "resp (us)", "Kops/s", "NAND I/O (K)", "memcpy (us)",
              "waste (MB)");
  for (auto policy : policies) {
    for (const auto& [name, factory] : workloads) {
      KvSsdOptions o = base;
      o.buffer.policy = policy;
      auto ssd = KvSsd::Open(o).value();
      auto spec = factory(args.ops);
      auto r = workload::RunSerial(*ssd, workload::PutOps(spec),
                                   spec.name, buffer::PolicyName(policy));
      const double nand_per_op =
          static_cast<double>(r.delta.nand_pages_programmed) /
          static_cast<double>(r.ops);
      const double memcpy_us_per_op =
          static_cast<double>(r.delta.device_memcpy_bytes) *
          static_cast<double>(o.cost.memcpy_ns_per_byte) /
          static_cast<double>(r.ops) / 1000.0;
      const double waste_per_op =
          static_cast<double>(r.delta.buffer_wasted_bytes) /
          static_cast<double>(r.ops);
      std::printf("%9s %6s | %11.1f %9.1f %14.1f %14.2f %12.1f\n",
                  buffer::PolicyName(policy), name, r.MeanResponseUs(),
                  r.KopsPerSec(),
                  ScaledMillions(args, nand_per_op) * 1000.0,
                  memcpy_us_per_op,
                  ScaledGB(args, waste_per_op) * 1000.0);
      csv.Row("%s,%s,%.1f,%.1f,%.1f,%.2f,%.1f", buffer::PolicyName(policy),
              name, r.MeanResponseUs(), r.KopsPerSec(),
              ScaledMillions(args, nand_per_op) * 1000.0, memcpy_us_per_op,
              ScaledGB(args, waste_per_op) * 1000.0);
    }
    std::printf("\n");
  }
  std::printf("paper: Block worst everywhere; Select ~= Block on W(C); All "
              "pays the largest memcpy time (growing W(M)<W(B)<W(D)<W(C)); "
              "Backfill best on small-value-dominant W(B)/W(M)\n");
  return 0;
}
