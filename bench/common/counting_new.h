// Counting replacement of the global operator new / delete, for the
// allocation benchmarks and regression tests. Linking the
// grefar_counting_new object library into a binary installs it; it counts
// calls to operator new while g_counting is set.
//
// The replacement lives in its own translation unit on purpose: where the
// caller's TU can inline an operator delete that calls free(), g++ 12
// reports -Wmismatched-new-delete against the operator new it sees.
#pragma once

#include <atomic>
#include <cstdint>

extern std::atomic<bool> g_counting;
extern std::atomic<std::uint64_t> g_allocations;
