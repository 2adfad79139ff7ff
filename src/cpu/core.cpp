#include "cpu/core.hpp"

#include <cassert>

namespace epf
{

Core::Core(EventQueue &eq, const CoreParams &params, CorePort &mem,
           unsigned coreId)
    : eq_(eq), p_(params), mem_(mem), coreId_(coreId),
      streamNamespace_(static_cast<int>(coreId) << kStreamIdCoreShift)
{
    valueReady_.reserve(1 << 20);
    // Every ROB entry costs at least one instruction, so occupancy never
    // exceeds robEntries — reserving that up front keeps the pooled
    // RobEntry pointers stable (the ring never reallocates, and
    // forbidGrowth turns any violation into a debug assert instead of
    // silent invalidation).
    rob_.reserve(p_.robEntries + 1);
    rob_.forbidGrowth();
    execQ_.reserve(p_.robEntries + 1);
    issueQ_.reserve(p_.robEntries + 1);
}

void
Core::run(Generator<MicroOp> trace, std::function<void()> on_done)
{
    assert(!running_ && "core already running a trace");
    trace_ = std::move(trace);
    traceValid_ = false;
    traceDone_ = false;
    onDone_ = std::move(on_done);
    while (!rob_.empty()) {
        robPool_.release(rob_.front());
        rob_.pop_front();
    }
    robInstrs_ = 0;
    lqUsed_ = 0;
    sqUsed_ = 0;
    workRemaining_ = 0;
    execQ_.clear();
    issueQ_.clear();
    running_ = true;
    sleeping_ = false;
    branchPending_ = false;
    refillLeft_ = 0;
    eq_.scheduleIn(0, [this] { tick(); });
}

Core::RobEntry *
Core::newRobEntry(MicroOp op)
{
    // Pooled: reset every field the previous occupant may have left.
    RobEntry *e = robPool_.acquire();
    e->op = std::move(op);
    e->complete = false;
    e->seq = seq_++;
    rob_.push_back(e);
    return e;
}

bool
Core::depsReady(const MicroOp &op) const
{
    for (ValueId d : op.deps) {
        if (d == 0)
            continue;
        if (d >= valueReady_.size() || !valueReady_[d])
            return false;
    }
    return true;
}

void
Core::markValueReady(ValueId id)
{
    if (id == 0)
        return;
    if (id >= valueReady_.size())
        valueReady_.resize(static_cast<std::size_t>(id) * 2 + 64, false);
    valueReady_[id] = true;
}

void
Core::wake()
{
    if (!running_ || !sleeping_)
        return;
    sleeping_ = false;
    // Account the stall cycles skipped while asleep, then resume on the
    // next clock edge.
    const Tick now = eq_.now();
    const Tick elapsed = now > sleepFrom_ ? now - sleepFrom_ : 0;
    const Cycles skipped = elapsed / p_.period;
    stats_.cycles += skipped;
    stats_.commitStallCycles += skipped;
    const Tick next_edge = ((now / p_.period) + 1) * p_.period;
    eq_.schedule(next_edge, [this] { tick(); });
}

void
Core::tick()
{
    if (sleeping_)
        return;
    ++stats_.cycles;

    bool progress = false;
    progress |= commit();
    bool committed = progress;
    progress |= completeWork();
    progress |= issueMemOps();
    progress |= dispatch();

    if (!rob_.empty() && !committed)
        ++stats_.commitStallCycles;

    if (rob_.empty() && traceDone_ && workRemaining_ == 0) {
        running_ = false;
        if (onDone_)
            eq_.scheduleIn(0, std::move(onDone_));
        onDone_ = nullptr;
        return;
    }

    if (!progress) {
        // Fully stalled on the memory system: sleep until a completion.
        sleeping_ = true;
        sleepFrom_ = eq_.now();
        return;
    }
    eq_.scheduleIn(p_.period, [this] { tick(); });
}

bool
Core::commit()
{
    // Commit bandwidth is `width` instructions per cycle; a wide Work
    // entry may overshoot the budget (committing it still takes
    // proportionally many cycles on average).
    int budget = static_cast<int>(p_.width);
    bool any = false;
    while (budget > 0 && !rob_.empty() && rob_.front()->complete) {
        RobEntry *e = rob_.front();
        budget -= static_cast<int>(e->op.instrs);
        assert(robInstrs_ >= e->op.instrs);
        robInstrs_ -= e->op.instrs;
        markValueReady(e->op.produces);
        rob_.pop_front();
        robPool_.release(e);
        any = true;
    }
    return any;
}

bool
Core::completeWork()
{
    // Entries that stay incomplete are compacted to the front, in order.
    std::size_t kept = 0;
    for (RobEntry *e : execQ_) {
        if (!depsReady(e->op)) {
            execQ_[kept++] = e;
            continue;
        }
        e->complete = true;
        if (e->op.kind == MicroOp::Kind::BranchMiss) {
            // The branch resolved: begin the front-end refill.
            assert(branchPending_);
            branchPending_ = false;
            refillLeft_ = p_.mispredictPenalty;
        } else {
            // Results forward to consumers at execute, not commit, so a
            // later entry of this same scan may already see them.
            markValueReady(e->op.produces);
        }
    }
    const bool any = kept != execQ_.size();
    execQ_.resize(kept);
    return any;
}

bool
Core::issueMemOps()
{
    // Entries that stay unissued are compacted to the front, in order.
    // Running out of load ports skips later loads but not later stores
    // or software prefetches.
    unsigned load_ports = p_.lsuPorts;
    std::size_t kept = 0;
    for (RobEntry *e : issueQ_) {
        if (!tryIssue(e, load_ports))
            issueQ_[kept++] = e;
    }
    const bool any = kept != issueQ_.size();
    issueQ_.resize(kept);
    return any;
}

bool
Core::tryIssue(RobEntry *e, unsigned &load_ports)
{
    switch (e->op.kind) {
      case MicroOp::Kind::Load:
        if (load_ports == 0 || !depsReady(e->op) || lqUsed_ >= p_.lqEntries)
            return false;
        ++lqUsed_;
        --load_ports;
        mem_.load(e->op.vaddr, nsStream(e->op.streamId), [this, e] {
            e->complete = true;
            // Loads broadcast their value as soon as data returns.
            markValueReady(e->op.produces);
            assert(lqUsed_ > 0);
            --lqUsed_;
            wake();
        });
        return true;
      case MicroOp::Kind::Store:
        if (!depsReady(e->op) || sqUsed_ >= p_.sqEntries)
            return false;
        ++sqUsed_;
        e->complete = true; // stores retire without waiting for data
        mem_.store(e->op.vaddr, nsStream(e->op.streamId), [this] {
            assert(sqUsed_ > 0);
            --sqUsed_;
            wake();
        });
        return true;
      case MicroOp::Kind::SwPrefetch:
        if (!depsReady(e->op))
            return false;
        e->complete = true;
        mem_.swPrefetch(e->op.vaddr);
        return true;
      default:
        assert(false && "only memory ops enter the issue queue");
        return false;
    }
}

bool
Core::dispatch()
{
    if (branchPending_)
        return false; // wrong-path fetch: nothing useful to dispatch

    if (refillLeft_ > 0) {
        --refillLeft_; // pipeline refilling after the flush
        return true;
    }

    unsigned budget = p_.width;
    bool any = false;

    while (budget > 0) {
        // Finish charging a multi-instruction Work op first.
        if (workRemaining_ > 0) {
            std::uint32_t used = std::min<std::uint32_t>(budget,
                                                         workRemaining_);
            workRemaining_ -= used;
            budget -= used;
            stats_.instrs += used;
            any = true;
            continue;
        }

        if (!traceValid_) {
            if (traceDone_ || !trace_.next()) {
                traceDone_ = true;
                return any;
            }
            traceValid_ = true;
            if (fetchSink_ != nullptr)
                fetchSink_->onMicroOp(eq_.now(), trace_.value());
        }

        MicroOp &op = trace_.value();

        // The ROB holds instructions; a wide Work op needs room for all
        // of them (ops larger than the ROB are clamped so they can ever
        // dispatch).
        unsigned need = std::min<unsigned>(op.instrs, p_.robEntries);
        if (robInstrs_ + need > p_.robEntries) {
            ++stats_.robFullCycles;
            return any;
        }

        switch (op.kind) {
          case MicroOp::Kind::Work: {
            RobEntry &e = *newRobEntry(op);
            e.op.instrs = need;
            // Dependence-free work completes at dispatch but still
            // occupies its share of the window until it commits.
            e.complete = e.op.deps[0] == 0 && e.op.deps[1] == 0;
            if (!e.complete)
                execQ_.push_back(&e);
            workRemaining_ = op.instrs;
            robInstrs_ += need;
            traceValid_ = false;
            any = true;
            break;
          }
          case MicroOp::Kind::Load:
          case MicroOp::Kind::Store: {
            RobEntry &e = *newRobEntry(std::move(op));
            e.op.instrs = 1;
            stats_.instrs += 1;
            if (e.op.kind == MicroOp::Kind::Load)
                ++stats_.loads;
            else
                ++stats_.stores;
            issueQ_.push_back(&e);
            robInstrs_ += 1;
            traceValid_ = false;
            budget -= 1;
            any = true;
            break;
          }
          case MicroOp::Kind::SwPrefetch: {
            RobEntry &e = *newRobEntry(std::move(op));
            e.op.instrs = 1;
            stats_.instrs += 1;
            ++stats_.swPrefetches;
            issueQ_.push_back(&e);
            robInstrs_ += 1;
            traceValid_ = false;
            budget -= 1;
            any = true;
            break;
          }
          case MicroOp::Kind::BranchMiss: {
            RobEntry &e = *newRobEntry(std::move(op));
            e.op.instrs = 1;
            stats_.instrs += 1;
            ++stats_.branchMisses;
            execQ_.push_back(&e);
            robInstrs_ += 1;
            // Resolution may already be possible (dep ready): leave the
            // completion to completeWork on this or a later cycle.
            branchPending_ = true;
            traceValid_ = false;
            budget -= 1;
            any = true;
            // Stop dispatching: everything younger is wrong-path.
            return any;
          }
          case MicroOp::Kind::PfConfig: {
            ++stats_.configOps;
            if (op.config)
                op.config();
            // Instruction cost is charged as the budget drains.
            workRemaining_ = op.instrs;
            traceValid_ = false;
            any = true;
            break;
          }
        }
    }
    return any;
}

} // namespace epf
