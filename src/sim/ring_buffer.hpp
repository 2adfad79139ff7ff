/**
 * @file
 * Growable circular FIFO used throughout the simulation hot path.
 *
 * `std::deque` allocates and frees a fixed-size chunk every few dozen
 * push/pop pairs when used as a queue, which shows up in every component
 * of the engine (DRAM bank queues, MSHR overflow, the prefetcher's
 * observation/request queues, the core's ROB).  `Ring` keeps one
 * power-of-two buffer and reuses it forever: after warm-up, pushing and
 * popping allocate nothing.
 *
 * Growth reallocates (moves elements), so a reference into a Ring is
 * only good until the next push.
 */

#ifndef EPF_SIM_RING_BUFFER_HPP
#define EPF_SIM_RING_BUFFER_HPP

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace epf
{

template <typename T>
class Ring
{
  public:
    Ring() = default;
    explicit Ring(std::size_t capacity) { reserve(capacity); }

    Ring(Ring &&other) noexcept
        : data_(other.data_), cap_(other.cap_), head_(other.head_),
          size_(other.size_)
    {
        other.data_ = nullptr;
        other.cap_ = other.head_ = other.size_ = 0;
    }

    Ring &
    operator=(Ring &&other) noexcept
    {
        if (this != &other) {
            destroyAll();
            data_ = other.data_;
            cap_ = other.cap_;
            head_ = other.head_;
            size_ = other.size_;
            other.data_ = nullptr;
            other.cap_ = other.head_ = other.size_ = 0;
        }
        return *this;
    }

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    ~Ring() { destroyAll(); }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &
    front()
    {
        assert(size_ > 0);
        return data_[head_];
    }

    const T &
    front() const
    {
        assert(size_ > 0);
        return data_[head_];
    }

    void
    push_back(T v)
    {
        emplace_back(std::move(v));
    }

    template <typename... A>
    T &
    emplace_back(A &&...args)
    {
        if (size_ == cap_)
            grow(cap_ == 0 ? kMinCapacity : cap_ * 2);
        T *slot = &data_[(head_ + size_) & (cap_ - 1)];
        ::new (static_cast<void *>(slot)) T(std::forward<A>(args)...);
        ++size_;
        return *slot;
    }

    void
    pop_front()
    {
        assert(size_ > 0);
        data_[head_].~T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

    /** Ensure capacity for at least @p n elements without reallocating. */
    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(roundUpPow2(n));
    }

  private:
    static constexpr std::size_t kMinCapacity = 8;

    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t c = kMinCapacity;
        while (c < n)
            c *= 2;
        return c;
    }

    void
    grow(std::size_t new_cap)
    {
        T *nd = static_cast<T *>(
            ::operator new(new_cap * sizeof(T), std::align_val_t(alignof(T))));
        for (std::size_t i = 0; i < size_; ++i) {
            T &src = data_[(head_ + i) & (cap_ - 1)];
            ::new (static_cast<void *>(&nd[i])) T(std::move(src));
            src.~T();
        }
        if (data_ != nullptr)
            ::operator delete(data_, std::align_val_t(alignof(T)));
        data_ = nd;
        cap_ = new_cap;
        head_ = 0;
    }

    void
    destroyAll()
    {
        if (data_ == nullptr)
            return;
        clear();
        ::operator delete(data_, std::align_val_t(alignof(T)));
        data_ = nullptr;
        cap_ = 0;
    }

    T *data_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace epf

#endif // EPF_SIM_RING_BUFFER_HPP
