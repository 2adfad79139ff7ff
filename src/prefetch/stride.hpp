/**
 * @file
 * Reference-prediction-table stride prefetcher (Chen & Baer), degree 8.
 *
 * Table 1's baseline "Stride Prefetcher".  Entries are indexed by the
 * load's stream id (the PC proxy); a stride is confirmed after two
 * consecutive accesses with the same delta, after which up to @c degree
 * lines ahead are prefetched.
 */

#ifndef EPF_PREFETCH_STRIDE_HPP
#define EPF_PREFETCH_STRIDE_HPP

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hpp"

namespace epf
{

/** Configuration of the RPT stride prefetcher. */
struct StrideParams
{
    unsigned tableEntries = 256;
    unsigned degree = 8;
};

/** The stride prefetcher. */
class StridePrefetcher : public QueuedPrefetcher
{
  public:
    explicit StridePrefetcher(const StrideParams &params = {})
        : p_(params), table_(params.tableEntries)
    {
    }

    void
    notifyDemand(Addr vaddr, bool is_load, bool hit, int stream_id) override
    {
        (void)hit;
        if (!is_load || stream_id < 0)
            return;

        Entry &e = table_[static_cast<unsigned>(stream_id) %
                          table_.size()];
        if (e.streamId != stream_id) {
            e = Entry{};
            e.streamId = stream_id;
            e.lastAddr = vaddr;
            return;
        }

        std::int64_t stride = static_cast<std::int64_t>(vaddr) -
                              static_cast<std::int64_t>(e.lastAddr);
        if (stride != 0 && stride == e.stride) {
            if (e.confidence < 3)
                ++e.confidence;
        } else {
            e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
            e.stride = stride;
        }
        e.lastAddr = vaddr;

        if (e.confidence >= 2 && e.stride != 0) {
            // Issue up to `degree` prefetches ahead, line-deduplicated.
            Addr prev_line = lineAlign(vaddr);
            for (unsigned d = 1; d <= p_.degree; ++d) {
                Addr target = vaddr + static_cast<Addr>(e.stride) * d;
                if (lineAlign(target) == prev_line)
                    continue;
                prev_line = lineAlign(target);
                push(target);
            }
        }
    }

  private:
    struct Entry
    {
        int streamId = -1;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    StrideParams p_;
    std::vector<Entry> table_;
};

} // namespace epf

#endif // EPF_PREFETCH_STRIDE_HPP
