#include "obs/metrics.hh"

#include <ostream>

#include "core/machine.hh"

namespace prism {

std::string
MetricLabels::key() const
{
    std::string s = component;
    s += '.';
    if (lane != kNoLane) {
        s += 'p';
        s += std::to_string(lane);
        s += '.';
    }
    s += name;
    return s;
}

std::string
MetricLabels::fullName() const
{
    if (node == kMachineWide)
        return key();
    return "node" + std::to_string(node) + "." + key();
}

std::vector<MetricRegistry::HistogramEntry>
MetricRegistry::histograms() const
{
    struct Collect : MetricVisitor {
        std::vector<HistogramEntry> out;
        void
        histogram(const MetricLabels &at, const Histogram &h) override
        {
            out.push_back(HistogramEntry{at, &h});
        }
    } c;
    m_.visitMetrics(c);
    return std::move(c.out);
}

void
MetricRegistry::dump(std::ostream &os) const
{
    struct Dump : MetricVisitor {
        std::ostream &os;
        explicit Dump(std::ostream &o) : os(o) {}
        void
        counter(const MetricLabels &at, std::uint64_t v) override
        {
            os << at.fullName() << " " << v;
            if (*at.desc)
                os << "  # " << at.desc;
            os << "\n";
        }
    } d(os);
    m_.visitMetrics(d);
}

std::vector<std::uint64_t>
latencyBounds()
{
    std::vector<std::uint64_t> b;
    b.reserve(19); // 2^4 .. 2^22
    for (std::uint64_t v = 16; v <= (1ULL << 22); v <<= 1)
        b.push_back(v);
    return b;
}

} // namespace prism
