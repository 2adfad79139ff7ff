/**
 * @file
 * Request descriptors that travel through the memory hierarchy.
 */

#ifndef EPF_MEM_PACKET_HPP
#define EPF_MEM_PACKET_HPP

#include <cstdint>

#include "sim/small_function.hpp"
#include "sim/types.hpp"

namespace epf
{

/**
 * A line-granularity request below the L1 interface.
 *
 * Carries the metadata the programmable prefetcher threads through the
 * hierarchy: the memory-request tag identifying a linked data structure
 * (Section 4.7 of the paper), the PPU kernel to trigger when the fill
 * arrives, and the optional EWMA "timed chain" start tick (Section 4.5).
 */
struct LineRequest
{
    /** Line-aligned physical address. */
    Addr paddr = 0;
    /** Line-aligned virtual address (prefetch events use VAs). */
    Addr vaddr = 0;
    /** Tick at which the timed prefetch chain started (EWMA input). */
    Tick timedStart = 0;
    /** Memory-request tag: data-structure id, or -1 for untagged. */
    std::int32_t tag = -1;
    /** PPU kernel to run when this prefetch fills, or -1 for none. */
    std::int32_t cbKernel = -1;
    /** Filter entry that originated the timed chain (-1 if none). */
    std::int16_t timedOrigin = -1;
    /** PPU stalled on this request in blocked mode (-1 otherwise). */
    std::int16_t originPpu = -1;
    /** True for prefetch requests (demand otherwise). */
    bool isPrefetch = false;
    /** True if @ref timedStart carries a valid EWMA chain-start tick. */
    bool hasTimedStart = false;
    /**
     * True for completion events synthesised for lines that were already
     * resident (no memory access happened): they keep event chains
     * alive but must not be used as chain-latency EWMA samples.
     */
    bool synthesized = false;
};

/**
 * Completion callback used throughout the hierarchy.
 *
 * Deliberately the same type as EventQueue::Callback so completions move
 * straight onto the event queue without re-wrapping or allocating.
 */
using DoneFn = SmallFunction<void()>;

} // namespace epf

#endif // EPF_MEM_PACKET_HPP
