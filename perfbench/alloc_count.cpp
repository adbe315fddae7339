// Replaceable global operator new that counts every heap allocation the
// process makes, so the benchmark can report allocations per op inside its
// timed windows exactly (the count is host-independent). Same pattern as
// tests/event_engine_test.cpp.
#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

namespace perfbench {
std::uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace perfbench

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
