#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <stdexcept>

namespace epf
{

double
StatRegistry::get(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

void
StatRegistry::setUnique(const std::string &name, double value)
{
    if (!values_.emplace(name, value).second)
        throw std::logic_error("duplicate statistic name: " + name);
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, value] : values_) {
        os << std::left << std::setw(48) << name << " ";
        writeStatValue(os, value);
        os << "\n";
    }
}

namespace
{

/** Linear-interpolated quantile of a sorted sample vector. */
double
quantileSorted(const std::vector<double> &xs, double q)
{
    if (xs.empty())
        return 0.0;
    if (xs.size() == 1)
        return xs.front();
    double pos = q * static_cast<double>(xs.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

} // namespace

SampleSummary
SampleSummary::of(std::vector<double> samples)
{
    SampleSummary s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.min = samples.front();
    s.max = samples.back();
    s.q1 = quantileSorted(samples, 0.25);
    s.median = quantileSorted(samples, 0.5);
    s.q3 = quantileSorted(samples, 0.75);
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    s.mean = sum / static_cast<double>(samples.size());
    return s;
}

double
geomean(const std::vector<double> &xs)
{
    double acc = 0.0;
    std::size_t n = 0;
    for (double x : xs) {
        if (x > 0.0) {
            acc += std::log(x);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(acc / static_cast<double>(n));
}

void
writeStatValue(std::ostream &os, double value)
{
    if (std::trunc(value) == value && std::fabs(value) < 0x1p53)
        os << static_cast<std::int64_t>(value);
    else
        os << value;
}

} // namespace epf
