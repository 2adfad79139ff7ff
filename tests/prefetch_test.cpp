/**
 * @file
 * Unit tests for the Markov GHB baseline prefetcher: which successors a
 * miss replays, what trains the history, the width and depth limits, and
 * the history's wrap-around once it reaches its capacity.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "prefetch/ghb.hpp"

namespace epf
{
namespace
{

/** Address of cache line @p n. */
Addr
line(unsigned n)
{
    return Addr{n} * kLineBytes;
}

/** Feed load misses to lines @p lines; return the lines replayed. */
std::vector<unsigned>
missOn(GhbPrefetcher &ghb, std::initializer_list<unsigned> lines)
{
    for (unsigned n : lines)
        ghb.notifyDemand(line(n) + 8, true, false, 0);
    std::vector<unsigned> replayed;
    while (ghb.hasRequest())
        replayed.push_back(
            static_cast<unsigned>(ghb.popRequest().vaddr / kLineBytes));
    return replayed;
}

TEST(GhbTest, ReplaysSuccessorsOfThePreviousOccurrence)
{
    GhbPrefetcher ghb;
    EXPECT_EQ(missOn(ghb, {1, 2, 3, 4, 1}), (std::vector<unsigned>{2, 3, 4}));
    EXPECT_EQ(ghb.ghbStats().misses, 5u);
    EXPECT_EQ(ghb.ghbStats().matches, 1u);
    EXPECT_EQ(ghb.ghbStats().issued, 3u);
}

TEST(GhbTest, HitsAndStoresDoNotTrain)
{
    GhbPrefetcher ghb;
    missOn(ghb, {1, 2});
    ghb.notifyDemand(line(3), false, false, 0); // store miss
    ghb.notifyDemand(line(4), true, true, 0);   // load hit
    EXPECT_EQ(ghb.ghbStats().misses, 2u);
    EXPECT_FALSE(ghb.hasRequest());
    EXPECT_EQ(missOn(ghb, {1}), (std::vector<unsigned>{2}));
}

TEST(GhbTest, WidthCapsTheReplay)
{
    GhbParams p;
    p.width = 2;
    GhbPrefetcher ghb(p);
    EXPECT_EQ(missOn(ghb, {1, 2, 3, 4, 1}), (std::vector<unsigned>{2, 3}));
}

TEST(GhbTest, FollowsOlderOccurrencesNewestFirst)
{
    GhbPrefetcher ghb;
    EXPECT_EQ(missOn(ghb, {1, 2, 1, 3}), (std::vector<unsigned>{2}));
    EXPECT_EQ(missOn(ghb, {1}), (std::vector<unsigned>{3, 2}));
    EXPECT_EQ(ghb.ghbStats().matches, 2u);
}

TEST(GhbTest, OverwrittenHistoryIsNotReplayed)
{
    // Four entries: the fifth miss wraps onto the first one's slot, so
    // line 1's occurrence is gone, while line 3's survives and replays
    // what followed it, wrapped entries included.
    GhbParams p;
    p.ghbEntries = 4;
    GhbPrefetcher ghb(p);
    EXPECT_TRUE(missOn(ghb, {1, 2, 3, 4, 5, 1}).empty());
    EXPECT_EQ(ghb.ghbStats().matches, 0u);
    EXPECT_EQ(missOn(ghb, {3}), (std::vector<unsigned>{4, 5, 1}));
}

} // namespace
} // namespace epf
