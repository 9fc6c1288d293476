#include "common/counting_new.h"

#include <cstdlib>
#include <new>

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

// Throwing forms only: the default nothrow/aligned forms forward here, and
// nothing in the measured paths uses over-aligned types.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
