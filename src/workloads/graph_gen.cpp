#include "workloads/graph_gen.hpp"

#include <algorithm>
#include <cmath>

namespace epf
{

EdgeList
rmatEdges(unsigned scale, unsigned edgefactor, Rng &rng)
{
    const std::uint64_t n = std::uint64_t{1} << scale;
    const std::uint64_t m = n * edgefactor;
    EdgeList edges;
    edges.reserve(m);

    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint64_t u = 0, v = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            const RmatBits b = rmatBits(rng.next() >> 11);
            u = (u << 1) | b.u;
            v = (v << 1) | b.v;
        }
        edges.emplace_back(static_cast<std::uint32_t>(u),
                           static_cast<std::uint32_t>(v));
    }

    // Graph500 permutes vertex labels to destroy locality.
    std::vector<std::uint32_t> perm(n);
    for (std::uint64_t i = 0; i < n; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    for (std::uint64_t i = n - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    for (auto &[u, v] : edges) {
        u = perm[u];
        v = perm[v];
    }
    return edges;
}

EdgeList
powerLawEdges(std::uint32_t nodes, std::uint64_t num_edges, Rng &rng)
{
    EdgeList edges;
    edges.reserve(num_edges);
    // Zipf-ish destination distribution via inverse power sampling;
    // sources roughly uniform (each page links out a few times).
    for (std::uint64_t e = 0; e < num_edges; ++e) {
        std::uint32_t u = static_cast<std::uint32_t>(rng.below(nodes));
        double r = rng.uniform();
        // dst rank ~ r^3 concentrates edges on few hot pages.
        auto dst_rank = static_cast<std::uint32_t>(
            static_cast<double>(nodes - 1) * r * r * r);
        // Hash the rank so hot pages are scattered through memory.
        std::uint32_t v = static_cast<std::uint32_t>(
            splitmix64(dst_rank) % nodes);
        edges.emplace_back(u, v);
    }
    std::sort(edges.begin(), edges.end());
    return edges;
}

Csr
buildCsr(std::uint32_t n, const EdgeList &edges, bool symmetrise)
{
    Csr g;
    g.n = n;
    g.rowStart.assign(static_cast<std::size_t>(n) + 1, 0);

    auto count = [&](std::uint32_t u) { ++g.rowStart[u + 1]; };
    for (const auto &[u, v] : edges) {
        if (u == v)
            continue; // Graph500 drops self loops
        count(u);
        if (symmetrise)
            count(v);
    }
    for (std::uint32_t i = 0; i < n; ++i)
        g.rowStart[i + 1] += g.rowStart[i];

    g.dest.resize(g.rowStart[n]);
    std::vector<std::uint64_t> fill(g.rowStart.begin(),
                                    g.rowStart.end() - 1);
    for (const auto &[u, v] : edges) {
        if (u == v)
            continue;
        g.dest[fill[u]++] = v;
        if (symmetrise)
            g.dest[fill[v]++] = u;
    }
    return g;
}

} // namespace epf
