// google-benchmark microbenchmarks for the hot components: command codec,
// hash-indexed MemTable, NAND page buffer packing, SSTable serialization,
// the FTL/NAND read path.
// These measure *simulator* (wall-clock) performance, not modeled device
// time — they exist to keep the simulation itself fast.
#include <benchmark/benchmark.h>

#include "buffer/page_buffer.h"
#include "ftl/ftl.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "nvme/command.h"
#include "workload/key_gen.h"
#include "workload/value_gen.h"

namespace bandslim {
namespace {

void BM_CommandPiggybackEncode(benchmark::State& state) {
  Bytes payload = workload::MakeValue(35, 1, 1);
  for (auto _ : state) {
    nvme::NvmeCommand cmd;
    benchmark::DoNotOptimize(
        nvme::codec::SetWritePiggyback(cmd, ByteSpan(payload)));
    benchmark::DoNotOptimize(cmd);
  }
}
BENCHMARK(BM_CommandPiggybackEncode);

void BM_CommandPiggybackDecode(benchmark::State& state) {
  nvme::NvmeCommand cmd;
  Bytes payload = workload::MakeValue(35, 1, 1);
  nvme::codec::SetWritePiggyback(cmd, ByteSpan(payload));
  Bytes out(35);
  for (auto _ : state) {
    nvme::codec::GetWritePiggyback(cmd, MutByteSpan(out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CommandPiggybackDecode);

void BM_MemTableInsert(benchmark::State& state) {
  lsm::MemTable mem(1);
  workload::UniqueHashKeyGenerator keys(7);
  for (auto _ : state) {
    if (mem.entry_count() >= 100000) {
      state.PauseTiming();
      mem.Clear();
      state.ResumeTiming();
    }
    mem.Put(keys.Next(), lsm::ValueRef{1, 1, false});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemTableInsert);

void BM_MemTableLookup(benchmark::State& state) {
  lsm::MemTable mem(1);
  workload::UniqueHashKeyGenerator keys(7);
  std::vector<std::string> inserted;
  for (int i = 0; i < 100000; ++i) {
    inserted.push_back(keys.Next());
    mem.Put(inserted.back(), lsm::ValueRef{1, 1, false});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Get(inserted[i++ % inserted.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemTableLookup);

void BM_BufferPackPiggybacked(benchmark::State& state) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  stats::MetricsRegistry metrics;
  buffer::BufferConfig config;
  config.policy = buffer::PackingPolicy::kAll;
  buffer::NandPageBuffer buf(
      config, &clock, &cost, &metrics,
      [](std::uint64_t, ByteSpan, std::uint32_t) { return Status::Ok(); });
  Bytes value = workload::MakeValue(static_cast<std::size_t>(state.range(0)), 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.PackPiggybacked(ByteSpan(value)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BufferPackPiggybacked)->Arg(32)->Arg(512)->Arg(4096);

void BM_SSTableEncodeDecode(benchmark::State& state) {
  std::vector<lsm::SSTableEntry> entries;
  workload::UniqueHashKeyGenerator keys(3);
  for (int i = 0; i < 1000; ++i) {
    entries.push_back({keys.Next(), {static_cast<std::uint64_t>(i), 8, false}});
  }
  for (auto _ : state) {
    Bytes stream;
    for (const auto& e : entries) lsm::EncodeEntry(&stream, e);
    std::size_t offset = 0;
    lsm::SSTableEntry out;
    for (int i = 0; i < 1000; ++i) {
      if (!lsm::DecodeEntry(ByteSpan(stream), &offset, &out).ok()) {
        state.SkipWithError("decode failed");
        break;
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SSTableEncodeDecode);

void BM_FtlReadView(benchmark::State& state) {
  // Host cost of the physical layer on a vLog page read: FTL map lookup,
  // NAND page-store probe and payload view, at random over 32k mapped pages
  // of a default-geometry device (short retained payloads keep RSS small).
  sim::VirtualClock clock;
  sim::CostModel cost;
  stats::MetricsRegistry metrics;
  nand::NandFlash nand(nand::NandGeometry{}, &clock, &cost, &metrics);
  ftl::PageFtl ftl(&nand, &metrics);
  constexpr std::uint64_t kPages = 32768;
  const Bytes payload = workload::MakeValue(256, 1, 1);
  for (std::uint64_t lpn = 0; lpn < kPages; ++lpn) {
    if (!ftl.Write(lpn, ByteSpan(payload), ftl::Stream::kVlog, true).ok()) {
      state.SkipWithError("write failed");
      return;
    }
  }
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> lpns(1 << 16);
  for (auto& lpn : lpns) lpn = rng.Below(kPages);
  std::shared_ptr<const Bytes> view;
  std::size_t i = 0;
  for (auto _ : state) {
    if (!ftl.ReadView(lpns[i++ & (lpns.size() - 1)], &view).ok()) {
      state.SkipWithError("read failed");
      break;
    }
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlReadView);

void BM_KeyGeneration(benchmark::State& state) {
  workload::UniqueHashKeyGenerator gen(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_KeyGeneration);

void BM_MixgraphSample(benchmark::State& state) {
  Xoshiro256 rng(5);
  workload::MixgraphSizes dist;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Next(rng));
  }
}
BENCHMARK(BM_MixgraphSample);

}  // namespace
}  // namespace bandslim

BENCHMARK_MAIN();
