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

#include <cstdint>
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
    /**
     * Integer handle to an interned statistic.  Handles pin the name
     * lookup once; set/add/get by handle are a vector index plus a
     * pointer write, so code that touches a counter per event never
     * pays the std::map string compare.
     * Handles stay valid for the registry's lifetime.
     */
    using StatId = std::uint32_t;

    /** Set (or overwrite) a scalar statistic. */
    void set(const std::string &name, double value) { values_[name] = value; }

    /**
     * Intern @p name: create the statistic (value 0.0) if absent and
     * return a stable integer handle to it.  Interning the same name
     * twice returns the same handle.
     */
    StatId intern(const std::string &name);

    /** Set the interned statistic @p id. */
    void set(StatId id, double value) { *handles_[id].value = value; }

    /** Add @p delta to the interned statistic @p id. */
    void add(StatId id, double delta) { *handles_[id].value += delta; }

    /** Read the interned statistic @p id. */
    double get(StatId id) const { return *handles_[id].value; }

    /** Name of the interned statistic @p id. */
    const std::string &name(StatId id) const { return *handles_[id].name; }

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
    /** Interned pointers into values_ (std::map nodes never move). */
    struct Handle
    {
        const std::string *name;
        double *value;
    };

    std::map<std::string, double> values_;
    std::vector<Handle> handles_;
    std::map<std::string, StatId> internIndex_;
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

} // namespace epf

#endif // EPF_SIM_STATS_HPP
