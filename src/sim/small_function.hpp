/**
 * @file
 * Fixed-size, move-only callable wrapper for the simulation hot path.
 *
 * `std::function` heap-allocates any callable larger than two pointers,
 * and every scheduled event, demand completion and TLB callback in the
 * simulator is such a callable.  `SmallFunction` stores every callable
 * in place in a @ref kSmallFunctionInline buffer, so the event loop
 * performs no heap allocation at all.  A callable that does not fit
 * fails to compile: work that is in flight lives in its owner (a PPU, a
 * page walk, a pooled transaction), and the callable captures a pointer
 * or index to it.
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

/** Inline capacity: an event node is {next, ops, buffer} = 64 bytes. */
inline constexpr std::size_t kSmallFunctionInline = 48;

template <typename Sig>
class SmallFunction;

template <typename R, typename... Args>
class SmallFunction<R(Args...)>
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
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    void
    reset() noexcept
    {
        if (ops_ == nullptr)
            return;
        if (ops_->destroy != nullptr)
            ops_->destroy(buf_);
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
    static inline const Ops inlineOps = {
        &invokeFn<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr : &relocateFn<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroyFn<Fn>,
    };

    template <typename F>
    void
    init(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kSmallFunctionInline &&
                          alignof(Fn) <= alignof(void *),
                      "callables must fit kSmallFunctionInline bytes: "
                      "keep in-flight state in its owner and capture a "
                      "pointer or index to it");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callables must be nothrow-move-constructible: "
                      "waiter lists and queues relocate them");
        if constexpr (std::is_empty_v<Fn>) {
            // A captureless callable constructs no state, leaving its
            // one storage byte formally uninitialized; give it a
            // defined value so the trivial-relocation copy is clean
            // under -Wuninitialized.
            buf_[0] = 0;
        }
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &inlineOps<Fn>;
    }

    void
    moveFrom(SmallFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ == nullptr)
            return;
        if (ops_->relocate != nullptr)
            ops_->relocate(buf_, other.buf_);
        else
            // The whole buffer: a compile-time size the compiler copies
            // inline rather than a call to libc memcpy.
            std::memcpy(buf_, other.buf_, kSmallFunctionInline);
        other.ops_ = nullptr;
    }

    const Ops *ops_ = nullptr;
    alignas(void *) mutable unsigned char buf_[kSmallFunctionInline];
};

} // namespace epf

#endif // EPF_SIM_SMALL_FUNCTION_HPP
