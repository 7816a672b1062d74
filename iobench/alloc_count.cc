// Global operator new/delete replacements that count every allocation, for
// host_allocs_per_op (the same counter perf_suite keeps). In a TU of their
// own so the compiler never inlines the malloc/free pairing into callers.
// The benchmark runs on one host thread, so a plain counter is exact.
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_new_calls = 0;
}  // namespace

namespace iobench {
std::uint64_t new_calls() noexcept { return g_new_calls; }
}  // namespace iobench

void* operator new(std::size_t n) {
  ++g_new_calls;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_new_calls;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
