// Size-aware global allocation counter (the bench_control idiom):
// replaces the global operator new/delete so the traced run can charge
// allocation calls and bytes to the span that made them. Counting is
// switched on only by the traced run.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  return std::malloc(n ? n : 1);
}
}  // namespace

namespace nnbench {

void set_alloc_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCount alloc_count() noexcept {
  return {g_calls.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace nnbench

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
