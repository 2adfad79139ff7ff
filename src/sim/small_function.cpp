#include "sim/small_function.hpp"

#include <array>
#include <cstdint>
#include <new>

// Detect ASan across GCC (__SANITIZE_ADDRESS__) and Clang (__has_feature).
#if defined(__SANITIZE_ADDRESS__)
#define EPF_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EPF_ASAN 1
#endif
#endif

namespace epf::detail
{

// Under ASan every block is plain new/delete, so the pool is not built.
#if !defined(EPF_ASAN)
namespace
{

/** Size classes for pooled blocks; anything larger is plain new/delete. */
constexpr std::array<std::size_t, 4> kClasses = {64, 128, 256, 512};

constexpr int
classOf(std::size_t bytes)
{
    for (std::size_t i = 0; i < kClasses.size(); ++i) {
        if (bytes <= kClasses[i])
            return static_cast<int>(i);
    }
    return -1;
}

/**
 * Per-thread freelists.  A freed block stores the next pointer in its own
 * first word.  The destructor runs at thread exit and returns every
 * pooled block to the system so sanitizers see no leaks.
 */
struct Arena
{
    std::array<void *, kClasses.size()> heads{};

    ~Arena()
    {
        for (std::size_t c = 0; c < heads.size(); ++c) {
            void *p = heads[c];
            while (p != nullptr) {
                void *next = *static_cast<void **>(p);
                ::operator delete(p);
                p = next;
            }
        }
    }
};

Arena &
arena()
{
    thread_local Arena a;
    return a;
}

} // namespace
#endif

void *
CallbackSlab::allocate(std::size_t bytes)
{
#if defined(EPF_ASAN)
    return ::operator new(bytes);
#else
    const int c = classOf(bytes);
    if (c < 0)
        return ::operator new(bytes);
    Arena &a = arena();
    void *p = a.heads[static_cast<std::size_t>(c)];
    if (p != nullptr) {
        a.heads[static_cast<std::size_t>(c)] = *static_cast<void **>(p);
        return p;
    }
    return ::operator new(kClasses[static_cast<std::size_t>(c)]);
#endif
}

void
CallbackSlab::deallocate(void *p, std::size_t bytes) noexcept
{
#if defined(EPF_ASAN)
    (void)bytes;
    ::operator delete(p);
#else
    const int c = classOf(bytes);
    if (c < 0) {
        ::operator delete(p);
        return;
    }
    Arena &a = arena();
    *static_cast<void **>(p) = a.heads[static_cast<std::size_t>(c)];
    a.heads[static_cast<std::size_t>(c)] = p;
#endif
}

} // namespace epf::detail
