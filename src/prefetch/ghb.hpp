/**
 * @file
 * Markov global-history-buffer prefetcher, GHB G/AC (Nesbit & Smith).
 *
 * Table 1's baseline: depth 16, width 6, with "regular" (2048/2048) and
 * "large" state sizes.  The index table maps a miss address to the most
 * recent GHB entry for that address; GHB entries link to the previous
 * occurrence of the same address, so the addresses that followed earlier
 * occurrences can be replayed as prefetch candidates.
 *
 * As in the paper's evaluation, metadata lookups are free (zero latency,
 * unlimited bandwidth): the baseline is given every benefit of the doubt.
 */

#ifndef EPF_PREFETCH_GHB_HPP
#define EPF_PREFETCH_GHB_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "prefetch/prefetcher.hpp"

namespace epf
{

/** Configuration of the Markov GHB prefetcher. */
struct GhbParams
{
    /**
     * Entries in the global history buffer.  It grows by one entry per
     * recorded miss up to this cap, then wraps around.
     */
    std::size_t ghbEntries = 2048;
    /** Entries in the index table. */
    std::size_t indexEntries = 2048;
    /** Successors replayed per matched occurrence. */
    unsigned width = 6;
    /** Prior occurrences followed through the link chain. */
    unsigned depth = 16;

    /** The paper's "regular" configuration. */
    static GhbParams regular() { return GhbParams{}; }

    /**
     * The paper's "large" configuration (1 GiB of state for full-size
     * inputs).  Scaled with our inputs: caps large enough to hold the
     * entire miss history of every scaled benchmark.  The history grows
     * with the miss stream, so a cell holds only the state its misses
     * have written, up to these caps.
     */
    static GhbParams
    large()
    {
        GhbParams p;
        p.ghbEntries = std::size_t{1} << 22;
        p.indexEntries = std::size_t{1} << 22;
        return p;
    }
};

/** The Markov GHB G/AC prefetcher. */
class GhbPrefetcher : public QueuedPrefetcher
{
  public:
    struct Stats
    {
        std::uint64_t misses = 0;
        std::uint64_t matches = 0;
        std::uint64_t issued = 0;
    };

    explicit GhbPrefetcher(const GhbParams &params = GhbParams::regular())
        : p_(params)
    {
        index_.reserve(std::min<std::size_t>(p_.indexEntries, 1u << 20));
    }

    void
    notifyDemand(Addr vaddr, bool is_load, bool hit, int stream_id) override
    {
        (void)stream_id;
        if (!is_load || hit)
            return; // Markov GHB trains on the miss stream
        ++stats_.misses;

        const Addr line = lineAlign(vaddr);

        // Replay successors of prior occurrences of this line.
        auto it = index_.find(line);
        if (it != index_.end() && entryLive(it->second) &&
            ghb_[it->second % p_.ghbEntries].addr == line) {
            ++stats_.matches;
            unsigned emitted = 0;
            std::uint64_t occ = it->second;
            for (unsigned d = 0; d < p_.depth && emitted < p_.width; ++d) {
                // Emit the addresses that followed this occurrence.
                for (std::uint64_t s = occ + 1;
                     s < head_ && emitted < p_.width; ++s) {
                    if (!entryLive(s))
                        break;
                    const Addr succ = ghb_[s % p_.ghbEntries].addr;
                    if (succ == line)
                        break; // ran into the next occurrence
                    push(succ);
                    ++stats_.issued;
                    ++emitted;
                    if (s - occ >= p_.width)
                        break;
                }
                std::uint64_t prev = ghb_[occ % p_.ghbEntries].prevOcc;
                if (prev == kNoLink || !entryLive(prev) ||
                    ghb_[prev % p_.ghbEntries].addr != line)
                    break;
                occ = prev;
            }
        }

        // Record the miss in the GHB and index table.  Until the history
        // is full, slot == ghb_.size() and the entry is appended.
        std::uint64_t slot = head_++;
        if (ghb_.size() < p_.ghbEntries)
            ghb_.emplace_back();
        GhbEntry &e = ghb_[slot % p_.ghbEntries];
        e.addr = line;
        e.prevOcc = kNoLink;
        if (it != index_.end()) {
            e.prevOcc = it->second;
            it->second = slot;
        } else {
            if (index_.size() >= p_.indexEntries) {
                // Capacity-limited index: evict an arbitrary entry (the
                // regular configuration thrashes on big data either way).
                index_.erase(index_.begin());
            }
            index_.emplace(line, slot);
        }
    }

    const Stats &ghbStats() const { return stats_; }

  private:
    static constexpr std::uint64_t kNoLink = UINT64_MAX;

    struct GhbEntry
    {
        Addr addr = 0;
        std::uint64_t prevOcc = kNoLink;
    };

    /**
     * True if logical slot @p occ has been written and not overwritten
     * (so ghb_[occ % ghbEntries] exists: every read is guarded by this).
     */
    bool
    entryLive(std::uint64_t occ) const
    {
        return occ < head_ && head_ - occ <= p_.ghbEntries;
    }

    GhbParams p_;
    std::vector<GhbEntry> ghb_;
    std::unordered_map<Addr, std::uint64_t> index_;
    std::uint64_t head_ = 0;
    Stats stats_;
};

} // namespace epf

#endif // EPF_PREFETCH_GHB_HPP
