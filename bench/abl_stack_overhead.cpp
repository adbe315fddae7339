// Ablation: the Figure 1 comparison, quantified. The same small-value PUT
// stream runs against (a) a host-side WiscKey-style KVS on a block SSD
// through a modeled kernel path (syscalls + FS/block layers + 4 KiB-block
// I/O), durable per PUT, (b) its page-cache-buffered variant (volatile
// window), (c) the baseline NVMe KV-SSD, and (d) the full BandSlim KV-SSD.
#include "bench_util.h"
#include "blockdev/block_ssd.h"
#include "hostkvs/host_kvs.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

namespace {

struct Row {
  const char* name;
  double us_per_op;
  double pcie_gb;
  double nand_k;
  const char* durability;
};

Row RunHostKvs(const char* name, bool fsync_each, const BenchArgs& args) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  nand::NandGeometry geometry = DefaultBenchOptions().geometry;
  blockdev::BlockSsdConfig ssd_config;
  ssd_config.retain_payloads = false;
  blockdev::BlockSsd ssd(geometry, &clock, &cost, &link, &metrics, ssd_config);
  hostkvs::HostKvs kvs(&ssd, &clock, &cost, &metrics,
                       hostkvs::HostKvsConfig{.fsync_each_put = fsync_each});

  auto spec = workload::MakeWorkloadM(args.ops);
  Xoshiro256 rng(spec.seed);
  Bytes value(spec.sizes->MaxSize(), 0xA5);
  const auto t0 = clock.Now();
  for (std::uint64_t i = 0; i < args.ops; ++i) {
    const std::string key = spec.keys->Next();
    const std::size_t size = spec.sizes->Next(rng);
    if (!kvs.Put(key, ByteSpan(value).subspan(0, size)).ok()) break;
  }
  const double ops = static_cast<double>(args.ops);
  return Row{name,
             static_cast<double>(clock.Now() - t0) / ops / 1000.0,
             ScaledGB(args, static_cast<double>(link.HostToDeviceBytes()) / ops),
             ScaledMillions(args, static_cast<double>(ssd.nand().pages_programmed()) / ops) * 1000.0,
             fsync_each ? "per-PUT" : "volatile window"};
}

Row RunKvSsd(const char* name, driver::TransferMethod method,
             buffer::PackingPolicy policy, const BenchArgs& args) {
  KvSsdOptions o = DefaultBenchOptions();
  o.driver.method = method;
  o.buffer.policy = policy;
  auto ssd = KvSsd::Open(o).value();
  auto spec = workload::MakeWorkloadM(args.ops);
  auto r = workload::RunSerial(*ssd, workload::PutOps(spec), spec.name, name);
  const double ops = static_cast<double>(args.ops);
  return Row{name, r.MeanResponseUs(),
             ScaledGB(args, r.TrafficPerOpBytes()),
             ScaledMillions(args,
                            static_cast<double>(r.delta.nand_pages_programmed) / ops) * 1000.0,
             "per-PUT"};
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/60000);
  PrintPlatform("Ablation: storage-stack comparison (Figure 1, quantified)",
                DefaultBenchOptions(), args);
  std::printf("\nworkload: W(M) (mixgraph-style small values)\n\n");
  std::printf("%-28s | %10s %12s %14s | %s\n", "stack", "us/op", "PCIe (GB)",
              "NAND I/O (K)", "durability");

  const Row rows[] = {
      RunHostKvs("host KVS (fsync/PUT)", true, args),
      RunHostKvs("host KVS (page cache)", false, args),
      RunKvSsd("KV-SSD baseline", driver::TransferMethod::kPrp,
               buffer::PackingPolicy::kBlock, args),
      RunKvSsd("KV-SSD + BandSlim", driver::TransferMethod::kAdaptive,
               buffer::PackingPolicy::kSelectiveBackfill, args),
  };
  for (const Row& r : rows) {
    std::printf("%-28s | %10.1f %12.3f %14.1f | %s\n", r.name, r.us_per_op,
                r.pcie_gb, r.nand_k, r.durability);
  }
  std::printf(
      "\ntake-away: the durable host stack moves ~4 GB over PCIe for ~36 MB\n"
      "of payload — the same block-unit amplification as the baseline KV-SSD\n"
      "— while BandSlim moves 30x less with equal durability. (Latencies are\n"
      "not directly comparable: this host KVS keeps its whole index in host\n"
      "RAM and runs no compaction, flattering the host rows; the kernel-path\n"
      "cost it does pay is the Figure 1 overhead the KV-SSD removes.)\n");
  return 0;
}
