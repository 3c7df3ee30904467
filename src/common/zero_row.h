/**
 * @file
 * ZeroRow<T>: a fixed-size row of T backed by anonymous pages.
 *
 * The simulator's large state — cache key/stamp/line rows, signature
 * hash tables, the WMT — starts out all Invalid/empty, and many runs
 * touch only part of it. Anonymous mmap memory is zero-filled by
 * the kernel and backed by a physical page only when that page is
 * first written, so a row costs neither set-up time nor resident
 * memory until it is used. Storage is page-aligned, which covers any
 * element alignment up to a page (the 64-B AlignedLine included).
 *
 * Nothing is constructed or destroyed: the row's invariant is that a
 * value-initialized T is all-zero bytes, so the zero pages already
 * hold value-initialized elements. test_common checks it for every
 * element type used in a row (DESIGN.md §3).
 */

#ifndef CABLE_COMMON_ZERO_ROW_H
#define CABLE_COMMON_ZERO_ROW_H

#include <sys/mman.h>

#include <cstddef>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace cable
{

template <class T> class ZeroRow
{
    static_assert(std::is_trivially_copyable_v<T>
                      && std::is_trivially_destructible_v<T>,
                  "ZeroRow elements are copied as bytes and never "
                  "destroyed");

  public:
    ZeroRow() = default;

    /** @p n value-initialized (all-zero) elements. */
    explicit ZeroRow(std::size_t n) : size_(n)
    {
        if (n == 0)
            return;
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_alloc();
        void *p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<T *>(p);
    }

    ZeroRow(const ZeroRow &o) : ZeroRow(o.size_)
    {
        if (size_)
            std::memcpy(data_, o.data_, bytes());
    }
    ZeroRow(ZeroRow &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }
    ZeroRow &
    operator=(ZeroRow o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        return *this;
    }
    ~ZeroRow()
    {
        if (data_)
            ::munmap(data_, bytes());
    }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    /** Value-initializes every element (writes every page). */
    void
    zero()
    {
        if (size_)
            std::memset(static_cast<void *>(data_), 0, bytes());
    }

  private:
    std::size_t bytes() const { return size_ * sizeof(T); }

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace cable

#endif // CABLE_COMMON_ZERO_ROW_H
