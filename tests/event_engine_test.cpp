// EventEngine: the (time, sequence) ordering contract the multi-queue
// execution mode depends on — identical schedules must drain identically.
//
// This binary also replaces the global allocator with a counting wrapper,
// so it can prove the hot-path allocation contracts (DESIGN.md §2.6): a
// reserved engine schedules without touching the heap, a cleared MemTable
// refills without touching it, and steady-state PUT/GET against an
// assembled device performs zero allocations per op.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cluster/kv_cluster.h"
#include "common/types.h"
#include "core/kvssd.h"
#include "lsm/memtable.h"
#include "sim/event_engine.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/fleet.h"
#include "telemetry/telemetry.h"

// --- Counting allocator ------------------------------------------------------
// Every operator-new in the process bumps g_heap_allocs. The strict
// zero-allocation assertions only run in optimized, sanitizer-free builds:
// debug STL and sanitizer runtimes allocate on paths release builds elide,
// and that is not what these tests measure.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BANDSLIM_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define BANDSLIM_TEST_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

#if defined(NDEBUG) && !defined(BANDSLIM_TEST_SANITIZED)
constexpr bool kStrictAllocChecks = true;
#else
constexpr bool kStrictAllocChecks = false;
#endif

// Allocations since construction.
class AllocCounter {
 public:
  AllocCounter() : start_(g_heap_allocs.load(std::memory_order_relaxed)) {}
  std::uint64_t delta() const {
    return g_heap_allocs.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::uint64_t start_;
};
}  // namespace

// Once these replacements inline, GCC pairs the free() in operator delete
// with the replaced operator new and raises -Wmismatched-new-delete; the
// pairing is in fact malloc/free (aligned_alloc/free for aligned forms).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bandslim::sim {
namespace {

TEST(EventEngineTest, RunsEventsInTimeOrder) {
  VirtualClock clock;
  EventEngine engine(&clock);
  std::vector<int> order;
  engine.Schedule(300, [&] { order.push_back(3); });
  engine.Schedule(100, [&] { order.push_back(1); });
  engine.Schedule(200, [&] { order.push_back(2); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.events_run(), 3u);
  EXPECT_EQ(clock.Now(), 300u);
}

TEST(EventEngineTest, SequenceBreaksTiesInScheduleOrder) {
  VirtualClock clock;
  EventEngine engine(&clock);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    engine.Schedule(50, [&order, i] { order.push_back(i); });
  }
  engine.RunUntilIdle();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventEngineTest, SetsClockToEventTimeIncludingRewind) {
  VirtualClock clock;
  EventEngine engine(&clock);
  std::vector<Nanoseconds> seen;
  // A later-scheduled but earlier-timed event must rewind the clock into
  // its frame (this is how an idle stream catches up to a busy one).
  engine.Schedule(500, [&] { seen.push_back(clock.Now()); });
  engine.Schedule(100, [&] { seen.push_back(clock.Now()); });
  clock.SetTime(400);
  engine.RunUntilIdle();
  EXPECT_EQ(seen, (std::vector<Nanoseconds>{100, 500}));
}

TEST(EventEngineTest, CallbacksMayScheduleMoreEvents) {
  VirtualClock clock;
  EventEngine engine(&clock);
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 5) engine.Schedule(clock.Now() + 10, hop);
  };
  engine.Schedule(0, hop);
  engine.RunUntilIdle();
  EXPECT_EQ(hops, 5);
  EXPECT_EQ(clock.Now(), 40u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EventEngineTest, RunOneReportsPendingAndNextTime) {
  VirtualClock clock;
  EventEngine engine(&clock);
  EXPECT_FALSE(engine.RunOne());
  engine.Schedule(70, [] {});
  engine.Schedule(30, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_EQ(engine.NextEventTime(), 30u);
  EXPECT_TRUE(engine.RunOne());
  EXPECT_EQ(engine.NextEventTime(), 70u);
  EXPECT_TRUE(engine.RunOne());
  EXPECT_FALSE(engine.RunOne());
}

TEST(EventEngineTest, SameTimestampBatchDrainsInScheduleOrder) {
  VirtualClock clock;
  EventEngine engine(&clock);
  std::vector<int> order;
  // Three events at t=100. The first one schedules, mid-drain, a fourth at
  // t=100 — it must append to the live batch and run after the entries
  // already queued (its sequence number is larger) — and a fifth at t=40.
  // Strict global (time, seq) order demands the t=40 event *preempt* the
  // rest of the t=100 batch, rewinding the clock into its frame and back:
  // exactly what the pre-batching heap did, one pop at a time.
  engine.Schedule(100, [&] {
    order.push_back(0);
    engine.Schedule(100, [&] {
      order.push_back(3);
      EXPECT_EQ(clock.Now(), 100u);
    });
    engine.Schedule(40, [&] {
      order.push_back(4);
      EXPECT_EQ(clock.Now(), 40u);
    });
  });
  engine.Schedule(100, [&] {
    order.push_back(1);
    EXPECT_EQ(clock.Now(), 100u);
  });
  engine.Schedule(100, [&] { order.push_back(2); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 4, 1, 2, 3}));
  EXPECT_EQ(engine.events_run(), 5u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EventEngineTest, BatchAppendsChainAcrossGenerations) {
  VirtualClock clock;
  EventEngine engine(&clock);
  // Each same-time event schedules the next; the whole chain must drain in
  // one RunUntilIdle without losing order or leaking pending entries.
  int chained = 0;
  std::function<void()> link = [&] {
    if (++chained < 64) engine.Schedule(clock.Now(), link);
  };
  engine.Schedule(10, link);
  engine.RunUntilIdle();
  EXPECT_EQ(chained, 64);
  EXPECT_EQ(clock.Now(), 10u);
  EXPECT_EQ(engine.pending(), 0u);
}

#ifdef NDEBUG
TEST(EventEngineTest, NextEventTimeWhenIdleReturnsSentinel) {
  VirtualClock clock;
  EventEngine engine(&clock);
  // Release builds return the unreachable sentinel instead of reading a
  // nonexistent heap front (the pre-overhaul engine invoked UB here).
  EXPECT_EQ(engine.NextEventTime(), EventEngine::kNoEventTime);
  engine.Schedule(5, [] {});
  engine.RunUntilIdle();
  EXPECT_EQ(engine.NextEventTime(), EventEngine::kNoEventTime);
}
#else
TEST(EventEngineDeathTest, NextEventTimeWhenIdleAssertsInDebug) {
  VirtualClock clock;
  EventEngine engine(&clock);
  EXPECT_DEATH((void)engine.NextEventTime(), "");
}
#endif

TEST(EventEngineTest, ReservedEngineSchedulesWithoutAllocating) {
  VirtualClock clock;
  EventEngine engine(&clock);
  engine.Reserve(8);
  // One warm-up cycle settles anything grown lazily.
  for (int i = 0; i < 8; ++i) engine.Schedule(static_cast<Nanoseconds>(i), [] {});
  engine.RunUntilIdle();

  AllocCounter allocs;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 8; ++i) {
      engine.Schedule(clock.Now() + 1 + static_cast<Nanoseconds>(i), [] {});
    }
    engine.RunUntilIdle();
  }
  if (kStrictAllocChecks) {
    EXPECT_EQ(allocs.delta(), 0u)
        << "a reserved engine must not touch the heap in steady state";
  }
  EXPECT_EQ(engine.events_run(), 808u);
}

}  // namespace
}  // namespace bandslim::sim

namespace bandslim {
namespace {

// Clear() keeps the MemTable's entry, index and order capacity: refilling a
// cleared table with as many keys — all of them new to it — allocates
// nothing, so a device's MemTable stops touching the heap after its first
// flush.
TEST(SteadyStateAllocationTest, ClearedMemTableRefillsWithoutAllocating) {
  constexpr int kKeys = 5000;
  std::vector<std::string> first;
  std::vector<std::string> second;
  for (int i = 0; i < kKeys; ++i) {
    first.push_back("a" + std::to_string(i));
    second.push_back("b" + std::to_string(i) + "-second");
  }
  lsm::MemTable mem;
  for (int i = 0; i < kKeys; ++i) {
    mem.Put(first[static_cast<std::size_t>(i)],
            lsm::ValueRef{static_cast<std::uint64_t>(i), 1, false});
  }
  std::size_t visited = 0;
  for (auto it = mem.Begin(); it.Valid(); it.Next()) ++visited;
  ASSERT_EQ(visited, static_cast<std::size_t>(kKeys));
  mem.Clear();

  AllocCounter allocs;
  for (int i = 0; i < kKeys; ++i) {
    mem.Put(second[static_cast<std::size_t>(i)],
            lsm::ValueRef{static_cast<std::uint64_t>(i), 2, false});
  }
  const std::uint64_t delta = allocs.delta();
  EXPECT_EQ(mem.entry_count(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(mem.Get(first[0]), nullptr);
  ASSERT_NE(mem.Get(second[0]), nullptr);
  if (kStrictAllocChecks) {
    EXPECT_EQ(delta, 0u) << "refilling a cleared MemTable must not allocate";
  }
}

// Steady-state hot-path contract over the fully assembled device: once every
// key exists and every pool/scratch has its working capacity, PUT
// (piggybacked write + trailing transfers) and GET (GetInto) perform zero
// heap allocations per op. Page flushes legitimately allocate (FTL mapping
// growth), so the PUT window is aligned to start just after a flush and is
// kept smaller than one NAND page.
TEST(SteadyStateAllocationTest, PutAndGetAllocateNothingAfterWarmup) {
  auto open = KvSsd::Open(KvSsdOptions{});
  ASSERT_TRUE(open.ok());
  std::unique_ptr<KvSsd> kv = std::move(open).value();

  // Keys stay within libstdc++'s small-string buffer: no per-op key allocs.
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) keys.push_back("k" + std::to_string(i));
  const Bytes value(128, 0xAB);
  const ByteSpan vspan(value.data(), value.size());
  Bytes got;
  got.reserve(4096);

  // Warm up: every key exists (subsequent PUTs are in-place overwrites) and
  // several vLog pages have been filled and flushed, so the buffer pool,
  // command scratches, and host-page free list all hold steady-state
  // capacity.
  for (int round = 0; round < 40; ++round) {
    for (const std::string& key : keys) ASSERT_TRUE(kv->Put(key, vspan).ok());
  }
  for (const std::string& key : keys) ASSERT_TRUE(kv->GetInto(key, &got).ok());

  // Align to a fresh vLog page: PUT until a flush fires, then measure a
  // window small enough (64 x 128 B = 8 KiB < 16 KiB) to not flush again.
  const std::uint64_t flushed = kv->GetStats().vlog_pages_flushed;
  for (int guard = 0; kv->GetStats().vlog_pages_flushed == flushed; ++guard) {
    ASSERT_TRUE(kv->Put(keys[0], vspan).ok());
    ASSERT_LT(guard, 1000) << "vLog flush never fired during alignment";
  }

  AllocCounter put_allocs;
  bool puts_ok = true;
  for (int i = 0; i < 64; ++i) {
    puts_ok = puts_ok && kv->Put(keys[i % keys.size()], vspan).ok();
  }
  const std::uint64_t put_delta = put_allocs.delta();
  ASSERT_TRUE(puts_ok);
  if (kStrictAllocChecks) {
    EXPECT_EQ(put_delta, 0u) << "steady-state PUT must not allocate";
  }

  // GETs against the buffer window (values just written).
  AllocCounter get_allocs;
  bool gets_ok = true;
  for (int i = 0; i < 64; ++i) {
    gets_ok = gets_ok && kv->GetInto(keys[i % keys.size()], &got).ok();
  }
  const std::uint64_t get_delta = get_allocs.delta();
  ASSERT_TRUE(gets_ok);
  if (kStrictAllocChecks) {
    EXPECT_EQ(get_delta, 0u) << "steady-state GET must not allocate";
  }
  EXPECT_EQ(got.size(), value.size());

  // GETs against flushed NAND pages (zero-copy ReadView path): drain the
  // buffer, warm the single-page read cache, then measure.
  ASSERT_TRUE(kv->Flush().ok());
  ASSERT_TRUE(kv->GetInto(keys[0], &got).ok());
  AllocCounter nand_allocs;
  gets_ok = true;
  for (int i = 0; i < 64; ++i) {
    gets_ok = gets_ok && kv->GetInto(keys[i % keys.size()], &got).ok();
  }
  const std::uint64_t nand_delta = nand_allocs.delta();
  ASSERT_TRUE(gets_ok);
  if (kStrictAllocChecks) {
    EXPECT_EQ(nand_delta, 0u) << "NAND-path GET must not allocate";
  }
  EXPECT_EQ(got, value);
}

// Observation-loop contract for the fleet plane: once one warm-up call has
// seeded the snapshot's vectors, counter maps, and alert strings, repeated
// KvCluster::InspectInto refills perform zero heap allocations — a sampling
// loop can inspect every interval for free. Same contract for the
// device-level InspectDeviceInto underneath it.
TEST(SteadyStateAllocationTest, ClusterInspectIntoAllocatesNothingAfterWarmup) {
  cluster::ClusterConfig cc;
  cc.num_shards = 2;
  cc.shard.geometry.channels = 2;
  cc.shard.geometry.ways = 2;
  cc.shard.geometry.blocks_per_die = 256;
  cc.shard.geometry.pages_per_block = 32;
  cc.shard.buffer.num_entries = 32;
  cc.shard.buffer.dlt_entries = 32;
  cc.fleet.enabled = true;
  cc.fleet.rules = {telemetry::ShardImbalanceRule(3000, 3),
                    telemetry::StragglerShardRule(4)};
  auto fleet = cluster::KvCluster::Open(cc).value();
  const Bytes value(96, 0xCD);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(fleet->Put("ins" + std::to_string(i),
                           ByteSpan(value.data(), value.size()))
                    .ok());
  }

  StoreSnapshot snap;
  fleet->InspectInto(&snap);  // Warm-up: seeds every buffer and string.
  AllocCounter allocs;
  for (int round = 0; round < 100; ++round) {
    fleet->InspectInto(&snap);
  }
  if (kStrictAllocChecks) {
    EXPECT_EQ(allocs.delta(), 0u)
        << "steady-state InspectInto must not touch the heap";
  }
  ASSERT_EQ(snap.num_shards(), 2u);
  EXPECT_GT(snap.stats.commands_submitted, 0u);
  EXPECT_EQ(snap.alerts.size(), 2u);
  EXPECT_EQ(snap.alerts[0].rule, "shard_imbalance");
  EXPECT_FALSE(snap.shards[0].counters.empty());
}

// Sampling contract for the observation planes: every plane resolves its
// series once (telemetry/series_slots.h), so a steady-state sample reads the
// live counters and stores them by id. What a sample still allocates is its
// own `values` vector plus the amortized growth of the sample and event
// rings — at most two allocations per sample emitted, counting the four
// device samplers and the fleet sample the attribution plane folds into.
TEST(SteadyStateAllocationTest, ObservedClusterAllocatesAtMostTwicePerSample) {
  cluster::ClusterConfig cc;
  cc.num_shards = 4;
  cc.shard.geometry.channels = 2;
  cc.shard.geometry.ways = 2;
  cc.shard.geometry.blocks_per_die = 256;
  cc.shard.geometry.pages_per_block = 32;
  cc.shard.buffer.num_entries = 32;
  cc.shard.buffer.dlt_entries = 32;
  cc.shard.telemetry.enabled = true;
  cc.shard.telemetry.sample_interval_ns = 20 * sim::kMicrosecond;
  cc.shard.telemetry.rules = {
      telemetry::ZeroOpStallRule(10),
      telemetry::TafBudgetRule(/*taf_milli=*/8000, /*n=*/4),
      telemetry::RetryStormRule(/*retries=*/1, /*n=*/1),
      telemetry::FreeBlocksLowRule(/*blocks=*/16, /*n=*/4),
      telemetry::CompactionDebtRule(/*budget_bytes=*/2048, /*n=*/1),
      telemetry::L0PileupRule(/*tables=*/4, /*n=*/1),
      telemetry::MemtableStallRule(/*stalls=*/1, /*n=*/1)};
  cc.tenants.resize(2);
  cc.tenants[0].name = "t0";
  cc.tenants[0].queue_id = 0;
  cc.tenants[1].name = "t1";
  cc.tenants[1].queue_id = 1;
  cc.fleet.enabled = true;
  cc.fleet.sample_interval_ns = 20 * sim::kMicrosecond;
  cc.fleet.rules = {
      telemetry::ShardImbalanceRule(/*ratio_milli=*/3000, /*n=*/3),
      telemetry::HotShardP99SkewRule(/*ratio_milli=*/3000, /*n=*/3),
      telemetry::RingSkewRule(/*skew_permille=*/500, /*n=*/3),
      telemetry::StragglerShardRule(/*n=*/6),
      telemetry::attribution::TenantBurnRateFastRule(0),
      telemetry::attribution::TenantBurnRateSlowRule(0),
      telemetry::attribution::TenantBurnRateFastRule(1),
      telemetry::attribution::TenantBurnRateSlowRule(1),
      telemetry::attribution::HotRangeRule(/*share_permille=*/300, /*n=*/2)};
  cc.attribution.enabled = true;
  cc.attribution.slo.resize(2);
  for (auto& slo : cc.attribution.slo) {
    slo.latency_target_ns = 200 * sim::kMicrosecond;
  }
  auto fleet = cluster::KvCluster::Open(cc).value();

  // Keys stay within libstdc++'s small-string buffer: no per-op key allocs.
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));
  const Bytes value(96, 0xEF);
  const ByteSpan vspan(value.data(), value.size());
  Bytes got;
  got.reserve(4096);
  const auto run = [&](int ops) {
    bool ok = true;
    for (int i = 0; i < ops; ++i) {
      KvStore& tenant = fleet->Tenant(static_cast<std::size_t>(i) & 1);
      const std::string& key =
          keys[static_cast<std::size_t>(i * 7) % keys.size()];
      ok = ok && (i % 2 == 0 ? tenant.Put(key, vspan)
                             : tenant.GetInto(key, &got))
                     .ok();
    }
    return ok;
  };
  const auto samples = [&] {
    std::uint64_t n = fleet->fleet().samples_emitted();
    for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
      n += fleet->shard(s).telemetry().samples_emitted();
    }
    return n;
  };

  // Warm-up: every key exists, every series is interned, every scratch and
  // pool holds its working capacity.
  for (const std::string& key : keys) {
    ASSERT_TRUE(fleet->Tenant(0).Put(key, vspan).ok());
  }
  ASSERT_TRUE(run(2000));

  const std::uint64_t samples_before = samples();
  AllocCounter allocs;
  const bool ok = run(2000);
  const std::uint64_t delta = allocs.delta();
  const std::uint64_t emitted = samples() - samples_before;
  ASSERT_TRUE(ok);
  ASSERT_GT(emitted, 500u) << "the window must span many samples";
  if (kStrictAllocChecks) {
    EXPECT_LE(delta, 2 * emitted)
        << delta << " allocations over " << emitted << " samples";
  }
}

}  // namespace
}  // namespace bandslim
