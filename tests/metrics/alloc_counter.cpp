// Global operator new/delete replacements that count allocations, for the
// zero-allocation proof in stream_stats_test.cpp. They live in their own
// translation unit so the compiler never inlines them into a caller: once
// inlined, GCC pairs the caller's `new` with the `free` inside `delete` and
// raises a false -Wmismatched-new-delete (seen under -fsanitize=address).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

/// Allocations made through global operator new so far, process-wide.
std::uint64_t global_allocation_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
