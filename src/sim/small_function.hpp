/**
 * @file
 * Small-buffer-optimized, move-only callable wrapper for the simulation
 * hot path.
 *
 * `std::function` heap-allocates any callable larger than two pointers,
 * and every scheduled event, demand completion and TLB callback in the
 * simulator is such a callable.  `SmallFunction` stores callables up to
 * `InlineBytes` in place (48 bytes covers every per-access closure in the
 * engine) and sends larger ones to a thread-local slab pool
 * (@ref CallbackSlab), so the steady-state event loop performs no heap
 * allocation at all.
 *
 * Differences from `std::function`, chosen for the hot path:
 *  - move-only (no copy, so no shared-state surprises and no virtual
 *    copy dispatch);
 *  - callables must be nothrow-move-constructible (MSHR waiter lists,
 *    DRAM bank queues and cache fill waiters relocate them);
 *  - invoking an empty SmallFunction is a programming error (asserted),
 *    not an exception.
 */

#ifndef EPF_SIM_SMALL_FUNCTION_HPP
#define EPF_SIM_SMALL_FUNCTION_HPP

#include <cassert>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace epf
{

/** Default inline capacity, sized for the engine's per-access closures. */
inline constexpr std::size_t kSmallFunctionInline = 48;

namespace detail
{

/**
 * Thread-local slab pool for callables that overflow the inline buffer.
 *
 * Blocks are binned by size class and recycled through freelists, so the
 * steady state allocates nothing; each sweep worker thread owns its own
 * pool (the engine is single-threaded per EventQueue).  Under
 * AddressSanitizer the pool degrades to plain new/delete so lifetime bugs
 * keep their redzones.
 */
class CallbackSlab
{
  public:
    static void *allocate(std::size_t bytes);
    static void deallocate(void *p, std::size_t bytes) noexcept;
};

} // namespace detail

template <typename Sig, std::size_t InlineBytes = kSmallFunctionInline>
class SmallFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class SmallFunction<R(Args...), InlineBytes>
{
  public:
    SmallFunction() noexcept = default;
    SmallFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    SmallFunction(F &&f)
    {
        init(std::forward<F>(f));
    }

    SmallFunction(SmallFunction &&other) noexcept { moveFrom(other); }

    SmallFunction &
    operator=(SmallFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    /** Replace the callable with @p f, constructed in place. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    void
    emplace(F &&f)
    {
        reset();
        init(std::forward<F>(f));
    }

    /** Replace the callable with @p other's, moved in once.  There is
     *  deliberately no lvalue overload: taking a wrapper is a move. */
    void
    emplace(SmallFunction &&other) noexcept
    {
        reset();
        moveFrom(other);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke.  Const like std::function: the wrapper is const, the
     *  wrapped callable's state is its own business. */
    R
    operator()(Args... args) const
    {
        assert(ops_ != nullptr && "invoking an empty SmallFunction");
        return ops_->invoke(target(), std::forward<Args>(args)...);
    }

    void
    reset() noexcept
    {
        if (ops_ == nullptr)
            return;
        if (ops_->heap) {
            ops_->destroy(st_.ptr);
            detail::CallbackSlab::deallocate(st_.ptr, ops_->bytes);
        } else if (ops_->destroy != nullptr) {
            ops_->destroy(st_.buf);
        }
        ops_ = nullptr;
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct dst from src and destroy src.  Null means the
         *  callable is trivially relocatable (a copy of the whole inline
         *  buffer). */
        void (*relocate)(void *dst, void *src) noexcept;
        /** Destroy the callable in place.  Null means trivial. */
        void (*destroy)(void *) noexcept;
        /** sizeof the callable (the slab block size to return). */
        std::size_t bytes;
        /** True when the callable lives in a slab block. */
        bool heap;
    };

    template <typename Fn>
    static R
    invokeFn(void *obj, Args... args)
    {
        return (*static_cast<Fn *>(obj))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    relocateFn(void *dst, void *src) noexcept
    {
        ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
        static_cast<Fn *>(src)->~Fn();
    }

    template <typename Fn>
    static void
    destroyFn(void *obj) noexcept
    {
        static_cast<Fn *>(obj)->~Fn();
    }

    template <typename Fn>
    static constexpr bool kFitsInline =
        sizeof(Fn) <= InlineBytes && alignof(Fn) <= alignof(void *);

    template <typename Fn>
    static inline const Ops inlineOps = {
        &invokeFn<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr : &relocateFn<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroyFn<Fn>,
        sizeof(Fn),
        false,
    };

    template <typename Fn>
    static inline const Ops heapOps = {
        &invokeFn<Fn>,
        nullptr, // heap-stored: relocation is a pointer move
        &destroyFn<Fn>,
        sizeof(Fn),
        true,
    };

    template <typename F>
    void
    init(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callables must be nothrow-move-constructible: "
                      "waiter lists and queues relocate them");
        if constexpr (kFitsInline<Fn>) {
            if constexpr (std::is_empty_v<Fn>) {
                // A captureless callable constructs no state, leaving
                // its one storage byte formally uninitialized; give it
                // a defined value so the trivial-relocation copy is
                // clean under -Wuninitialized.
                st_.buf[0] = 0;
            }
            ::new (static_cast<void *>(st_.buf)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            void *mem = detail::CallbackSlab::allocate(sizeof(Fn));
            ::new (mem) Fn(std::forward<F>(f));
            st_.ptr = mem;
            ops_ = &heapOps<Fn>;
        }
    }

    void
    moveFrom(SmallFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ == nullptr)
            return;
        if (ops_->heap)
            st_.ptr = other.st_.ptr;
        else if (ops_->relocate != nullptr)
            ops_->relocate(st_.buf, other.st_.buf);
        else
            // The whole buffer: a compile-time size the compiler copies
            // inline, where ops_->bytes would be a call to libc memcpy.
            std::memcpy(st_.buf, other.st_.buf, InlineBytes);
        other.ops_ = nullptr;
    }

    void *
    target() const noexcept
    {
        return ops_->heap ? st_.ptr : static_cast<void *>(st_.buf);
    }

    union Storage
    {
        alignas(void *) unsigned char buf[InlineBytes];
        void *ptr;
    };

    const Ops *ops_ = nullptr;
    mutable Storage st_;
};

} // namespace epf

#endif // EPF_SIM_SMALL_FUNCTION_HPP
