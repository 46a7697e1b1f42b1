/**
 * @file
 * Replacement global allocation functions for the benchmark binary:
 * they forward to malloc/free and count every allocation, so the
 * benchmark can report heap allocations per steady-state frame
 * (common.allocs_per_frame) without touching the library. The count is
 * one relaxed atomic add per allocation on every run, traced or not.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hh"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    return std::aligned_alloc(a, rounded ? rounded : a);
}

void *
orThrow(void *p)
{
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench {

std::uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

} // namespace perfbench

// Every allocation form, throwing and nothrow, so that no memory from
// the library's own operator new ever reaches the free() below.
void *operator new(std::size_t size) { return orThrow(countedAlloc(size)); }
void *operator new[](std::size_t size) { return orThrow(countedAlloc(size)); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept { std::free(p); }
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
