/**
 * @file
 * Single-channel DDR3-1600 11-11-11-28 timing model.
 *
 * Eight banks with open-row policy, FCFS per-bank scheduling and a shared
 * data bus.  Matches the memory configuration in Table 1 of the paper
 * closely enough to reproduce the latency/bandwidth regime the prefetcher
 * operates in: ~46 ns idle row-miss latency, 12.8 GB/s peak bandwidth,
 * and queueing delay under load.
 */

#ifndef EPF_MEM_DRAM_HPP
#define EPF_MEM_DRAM_HPP

#include <cstdint>
#include <vector>

#include "mem/mem_iface.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/types.hpp"

namespace epf
{

/** Timing parameters of the DRAM device (in ticks). */
struct DramParams
{
    /** Command clock period: 800 MHz => 20 ticks. */
    Tick tck = 20;
    /** CAS latency (11 cycles). */
    Tick tcl = 11 * 20;
    /** RAS-to-CAS delay (11 cycles). */
    Tick trcd = 11 * 20;
    /** Row precharge (11 cycles). */
    Tick trp = 11 * 20;
    /** Minimum row-open time (28 cycles). */
    Tick tras = 28 * 20;
    /** Data burst for one 64 B line: 4 command cycles at DDR. */
    Tick tburst = 4 * 20;
    /**
     * Fixed controller + interconnect traversal added to every access
     * (queueing into the memory controller, crossbar, PHY).  gem5
     * full-system measures ~80-110 ns L2-miss-to-use on this DDR3
     * configuration; the bank timing alone gives ~46 ns.
     */
    Tick frontendDelay = 20 * 16;
    /** Number of banks. */
    unsigned banks = 8;
    /** Bits above the line offset used for bank interleaving. */
    unsigned bankShift = kLineShift;
    /** Row = paddr >> rowShift. */
    unsigned rowShift = 16;
};

/** The DRAM channel: terminal level of the hierarchy. */
class Dram : public MemLevel
{
  public:
    /** Aggregate DRAM statistics. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t prefetchReads = 0;
        Tick totalReadLatency = 0;
    };

    Dram(EventQueue &eq, const DramParams &params);

    void readLine(const LineRequest &req, DoneFn done) override;
    void writeLine(const LineRequest &req) override;

    const Stats &stats() const { return stats_; }

    /** Attach the run's fault injector (null: fault-free, the default). */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        /** Earliest tick the next column command may start. */
        Tick readyAt = 0;
        /** Earliest tick a precharge is allowed (tRAS from activate). */
        Tick prechargeOkAt = 0;
        Ring<std::pair<LineRequest, DoneFn>> queue;
        bool scheduled = false;
    };

    unsigned bankOf(Addr paddr) const;
    std::uint64_t rowOf(Addr paddr) const;

    /** Service the head of @p bank's queue if possible. */
    void serviceBank(unsigned bank_idx);

    EventQueue &eq_;
    DramParams p_;
    FaultInjector *faults_ = nullptr;
    std::vector<Bank> banks_;
    /** Earliest tick the shared data bus is free. */
    Tick busFreeAt_ = 0;
    Stats stats_;
};

} // namespace epf

#endif // EPF_MEM_DRAM_HPP
