#include "common/stats.hh"

#include "common/logging.hh"

namespace asap
{

void
appendCounter(Counters &counters, std::string name, std::uint64_t value)
{
    for (const auto &counter : counters) {
        panic_if(counter.first == name, "duplicate counter '%s'",
                 name.c_str());
    }
    counters.emplace_back(std::move(name), value);
}

void
mergeCounters(Counters &into, const Counters &from)
{
    if (into.empty()) {
        into = from;
        return;
    }
    panic_if(into.size() != from.size(),
             "counter lists differ (%zu vs %zu)", into.size(), from.size());
    for (std::size_t i = 0; i < into.size(); ++i) {
        panic_if(into[i].first != from[i].first,
                 "counter %zu name mismatch (%s vs %s)", i,
                 into[i].first.c_str(), from[i].first.c_str());
        into[i].second += from[i].second;
    }
}

std::string
LevelDistribution::format() const
{
    std::string out;
    for (std::size_t i = 0; i < numMemLevels; ++i) {
        const auto level = static_cast<MemLevel>(i);
        out += strprintf("%s %5.1f%%  ", memLevelName(level),
                         100.0 * fraction(level));
    }
    return out;
}

} // namespace asap
