// google-benchmark microbenchmarks for the hot components: command codec,
// hash-indexed MemTable (insert, lookup, key-order sort), NAND page buffer
// packing, the compaction merge cursor and table builder, the FTL/NAND read
// path.
// These measure *simulator* (wall-clock) performance, not modeled device
// time — they exist to keep the simulation itself fast.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "buffer/page_buffer.h"
#include "ftl/ftl.h"
#include "lsm/compaction.h"
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

void BM_MemTableBegin(benchmark::State& state) {
  // Host cost of building key order for a flush: Begin() over a MemTable
  // refilled (untimed) with `n` Workload-M keys in hash order each round.
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::UniqueHashKeyGenerator keys(11);
  std::vector<std::string> inserted;
  for (std::size_t i = 0; i < n; ++i) inserted.push_back(keys.Next());
  lsm::MemTable mem(1);
  for (auto _ : state) {
    state.PauseTiming();
    mem.Clear();
    for (const std::string& k : inserted) mem.Put(k, lsm::ValueRef{1, 1, false});
    state.ResumeTiming();
    benchmark::DoNotOptimize(mem.Begin().key());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_MemTableBegin)->Arg(12000)->Arg(200000);

void BM_CompactionMergeBuild(benchmark::State& state) {
  // Host cost of one compaction's merge-and-write: a MergeCursor over a
  // newer run (every fourth key, overwritten) and an older run chained from
  // 16 tables streams into a TableBuilder splitting at 64 KiB, which
  // encodes, programs and fence-keys every page. Workload-M 4-byte keys.
  const auto n = static_cast<std::size_t>(state.range(0));
  workload::UniqueHashKeyGenerator keys(3);
  std::vector<lsm::PackedEntry> older;
  for (std::size_t i = 0; i < n; ++i) {
    older.push_back(lsm::PackedEntry::Make(keys.Next(), {i, 8, false}));
  }
  std::sort(older.begin(), older.end(),
            [](const lsm::PackedEntry& a, const lsm::PackedEntry& b) {
              return a.order() < b.order();
            });
  std::vector<lsm::PackedEntry> newer;
  for (std::size_t i = 0; i < n; i += 4) {
    newer.push_back(older[i]);
    newer.back().ref.addr += n;
  }
  lsm::MergeRun chained;
  for (std::size_t t = 0; t < 16; ++t) {
    chained.emplace_back(older.data() + n * t / 16, n * (t + 1) / 16 - n * t / 16);
  }
  nand::NandGeometry geometry;
  geometry.channels = 1;
  geometry.ways = 2;
  geometry.blocks_per_die = 64;
  geometry.pages_per_block = 64;
  sim::VirtualClock clock;
  sim::CostModel cost;
  stats::MetricsRegistry metrics;
  std::unique_ptr<nand::NandFlash> nand;
  std::unique_ptr<ftl::PageFtl> ftl;
  for (auto _ : state) {
    state.PauseTiming();
    ftl.reset();
    nand = std::make_unique<nand::NandFlash>(geometry, &clock, &cost, &metrics);
    ftl = std::make_unique<ftl::PageFtl>(nand.get(), &metrics);
    state.ResumeTiming();
    lsm::MergeCursor cursor({{{newer.data(), newer.size()}}, chained},
                            /*drop_tombstones=*/false);
    std::uint64_t id = 1;
    std::uint64_t lpn = ftl::kLsmLpnBase;
    std::size_t tables = 0;
    lsm::TableBuilder builder(
        ftl.get(), 64 << 10, n + newer.size(), &id, &lpn,
        [&](lsm::SSTableMeta, std::vector<lsm::PackedEntry>) { ++tables; });
    for (; cursor.Valid(); cursor.Next()) {
      if (!builder.Add(cursor.entry()).ok()) {
        state.SkipWithError("program failed");
        break;
      }
    }
    if (!builder.Finish().ok()) state.SkipWithError("finish failed");
    benchmark::DoNotOptimize(tables);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CompactionMergeBuild)->Arg(50000);

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
