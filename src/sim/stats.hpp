/**
 * @file
 * Lightweight statistics collection.
 *
 * Hot paths increment plain counters owned by each component; at the end
 * of a run components publish those counters into a StatRegistry, which
 * the harness prints or serialises.  This keeps the simulation loop free
 * of string lookups.
 */

#ifndef EPF_SIM_STATS_HPP
#define EPF_SIM_STATS_HPP

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace epf
{

/** A named bag of scalar statistics gathered after a run. */
class StatRegistry
{
  public:
    /** Set (or overwrite) a scalar statistic. */
    void set(const std::string &name, double value) { values_[name] = value; }

    /**
     * Publish a statistic that must not already exist.  Throws
     * std::logic_error on a duplicate: two components publishing the
     * same counter name (e.g. two L1s both claiming "l1.loads") is an
     * aliasing bug that silent overwriting would hide.
     */
    void setUnique(const std::string &name, double value);

    /** Fetch a statistic; returns @p fallback when absent. */
    double get(const std::string &name, double fallback = 0.0) const;

    /** True if the statistic has been published. */
    bool has(const std::string &name) const { return values_.count(name) != 0; }

    /** All statistics in name order. */
    const std::map<std::string, double> &all() const { return values_; }

    /** Pretty-print every statistic, one per line. */
    void dump(std::ostream &os) const;

  private:
    std::map<std::string, double> values_;
};

/**
 * Summary statistics of a sample set (used for the Fig. 10 box plot of
 * per-PPU activity factors).
 */
struct SampleSummary
{
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double mean = 0.0;

    /** Compute the five-number summary + mean of @p samples. */
    static SampleSummary of(std::vector<double> samples);
};

/** Geometric mean of a sample set (ignores non-positive entries). */
double geomean(const std::vector<double> &xs);

/**
 * Write one statistic: an integral value of magnitude below 2^53 as
 * that exact integer, any other value in the stream's current format.
 * (A stream's default 6 significant digits round counters above
 * 999,999.)
 */
void writeStatValue(std::ostream &os, double value);

} // namespace epf

#endif // EPF_SIM_STATS_HPP
