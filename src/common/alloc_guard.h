/**
 * @file
 * Runtime twin of lint rule R001 (tools/cable_lint.py): a scoped
 * allocation counter that lets tests assert the steady-state encode
 * search path really performs zero heap allocations, instead of
 * trusting the annotation comments.
 *
 * The header only defines a thread-local counter and an RAII scope
 * that samples it. The counter is bumped by replacement global
 * operator new/new[] definitions that live in alloc_guard_hooks.cc,
 * which is linked ONLY into test binaries that opt in (the
 * cable_alloc_hooks CMake target). In every other binary
 * hooksInstalled() stays false and a Scope costs two relaxed loads —
 * the production libraries never pay for the instrumentation.
 *
 * The counter is thread-local on purpose: the deterministic parallel
 * driver (common/worker_pool.h) runs one channel per worker thread,
 * and a per-thread count keeps one replica's scope from observing a
 * sibling's allocations.
 */

#ifndef CABLE_COMMON_ALLOC_GUARD_H
#define CABLE_COMMON_ALLOC_GUARD_H

#include <cstdint>

namespace cable
{
namespace alloc_guard
{

/** Allocations observed on this thread; see alloc_guard_hooks.cc. */
inline thread_local std::uint64_t t_alloc_count = 0;

/** Set once by the hook translation unit's static initializer. */
inline bool g_hooks_installed = false;

/** True when the counting operator-new replacements are linked in. */
inline bool
hooksInstalled() noexcept
{
    return g_hooks_installed;
}

/**
 * Defined only in alloc_guard_hooks.cc; calling it both documents
 * and enforces (at link time) that a test binary really carries the
 * replacement allocation functions.
 */
bool hooksLinked() noexcept;

/** Raw per-thread allocation count (monotonic while hooked). */
inline std::uint64_t
allocationCount() noexcept
{
    return t_alloc_count;
}

/**
 * Samples the thread's allocation counter over a region:
 *
 *   alloc_guard::Scope guard;
 *   ... search pipeline ...
 *   stats.add(search_allocs, guard.allocations()); // a CounterId
 *
 * allocations() is 0 whenever the hooks are not linked, so callers
 * can record it unconditionally without branching on configuration.
 */
class Scope
{
  public:
    Scope() noexcept : start_(allocationCount()) {}

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Allocations on this thread since construction (0 unhooked). */
    [[nodiscard]] std::uint64_t
    allocations() const noexcept
    {
        return hooksInstalled() ? allocationCount() - start_ : 0;
    }

  private:
    std::uint64_t start_;
};

} // namespace alloc_guard
} // namespace cable

#endif // CABLE_COMMON_ALLOC_GUARD_H
