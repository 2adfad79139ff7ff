/**
 * @file
 * Graph generators: Graph500-style R-MAT (Kronecker) and a power-law
 * web-graph generator for PageRank, plus a CSR builder.
 */

#ifndef EPF_WORKLOADS_GRAPH_GEN_HPP
#define EPF_WORKLOADS_GRAPH_GEN_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace epf
{

/** An edge list. */
using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/** Graph500's R-MAT partition probabilities (D = 1 - A - B - C). */
inline constexpr double kRmatA = 0.57, kRmatB = 0.19, kRmatC = 0.19;

/**
 * The integer form of uniform() < @p t for @p t in [0, 1]: the least k
 * with k * 2^-53 >= t, i.e. ceil(ldexp(t, 53)).  Rng::uniform() is
 * exactly (next() >> 11) * 2^-53, so uniform() < t holds exactly when
 * (next() >> 11) is below the returned bound.
 */
constexpr std::uint64_t
uniformBound(double t)
{
    const double x = t * 0x1p53; // exact: a power-of-two scale
    const auto k = static_cast<std::uint64_t>(x);
    return k + (static_cast<double>(k) < x ? 1 : 0);
}

/** The bits one R-MAT level adds to an edge's endpoints. */
struct RmatBits
{
    std::uint64_t u;
    std::uint64_t v;
};

/**
 * The R-MAT quadrant that uniform() = @p k * 2^-53 picks: A (no bit)
 * below kRmatA, B (v's bit) below A + B, C (u's bit) below A + B + C,
 * else D (both bits).  Integer compares decide it exactly and without a
 * data-dependent branch.
 */
constexpr RmatBits
rmatBits(std::uint64_t k)
{
    constexpr double ab = kRmatA + kRmatB;
    constexpr std::uint64_t ka = uniformBound(kRmatA);
    constexpr std::uint64_t kab = uniformBound(ab);
    constexpr std::uint64_t kabc = uniformBound(ab + kRmatC);
    const std::uint64_t ubit = k >= kab;
    return {ubit, (k >= ka) ^ ubit ^ (k >= kabc)};
}

/**
 * Graph500 R-MAT generator: 2^scale vertices, edgefactor * 2^scale
 * undirected edges with the standard (A,B,C) partition probabilities.
 */
EdgeList rmatEdges(unsigned scale, unsigned edgefactor, Rng &rng);

/** Power-law out-degree web graph (for PageRank's web-Google stand-in). */
EdgeList powerLawEdges(std::uint32_t nodes, std::uint64_t edges, Rng &rng);

/** Compressed sparse row form of a directed graph. */
struct Csr
{
    std::uint32_t n = 0;
    /** Row starts: n+1 entries (64-bit, as Graph500's xoff). */
    std::vector<std::uint64_t> rowStart;
    /** Edge targets (64-bit, as Graph500's xadj). */
    std::vector<std::uint64_t> dest;
};

/** Build CSR from an edge list; @p symmetrise adds reverse edges. */
Csr buildCsr(std::uint32_t n, const EdgeList &edges, bool symmetrise);

} // namespace epf

#endif // EPF_WORKLOADS_GRAPH_GEN_HPP
