/**
 * @file
 * Output checks behind the benchmark's failure count, the once-per-
 * environment setup accounting, and the self-tests that show both
 * catch what they should.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

#include "bench.hh"
#include "common/rng.hh"
#include "trace.hh"

namespace perfbench
{

using namespace asap;

void
Outcome::record(const std::string &what, const std::string &error)
{
    ++attempted;
    if (!error.empty()) {
        ++failed;
        failures.push_back(what + ": " + error);
    }
}

Seeds
seedsFor(std::uint64_t benchSeed)
{
    return {mix64(benchSeed), mix64(benchSeed ^ 0x9e3779b97f4a7c15ull)};
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, q * static_cast<double>(values.size()) + 0.999999));
    return values[std::min(rank, values.size()) - 1];
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
checkAccounting(const RunStats &s)
{
    char buf[256];
    if (s.tlbL1Hits + s.tlbL2Hits + s.tlbMisses != s.accesses) {
        std::snprintf(buf, sizeof buf,
                      "TLB outcomes %llu+%llu+%llu != accesses %llu",
                      static_cast<unsigned long long>(s.tlbL1Hits),
                      static_cast<unsigned long long>(s.tlbL2Hits),
                      static_cast<unsigned long long>(s.tlbMisses),
                      static_cast<unsigned long long>(s.accesses));
        return buf;
    }
    if (s.totalCycles != s.computeCycles + s.dataCycles + s.walkCycles) {
        std::snprintf(buf, sizeof buf,
                      "totalCycles %llu != compute %llu + data %llu + "
                      "walk %llu",
                      static_cast<unsigned long long>(s.totalCycles),
                      static_cast<unsigned long long>(s.computeCycles),
                      static_cast<unsigned long long>(s.dataCycles),
                      static_cast<unsigned long long>(s.walkCycles));
        return buf;
    }
    if (s.accesses == 0)
        return "no accesses measured";
    return "";
}

std::string
checkMcResult(const mc::McResult &result)
{
    std::string error = checkAccounting(result.aggregate);
    if (!error.empty())
        return "aggregate: " + error;
    // The per-tenant records, summed field by field here rather than
    // through RunStats::merge, must give the aggregate.
    RunStats sum;
    std::uint64_t walks = 0;
    for (std::size_t t = 0; t < result.tenants.size(); ++t) {
        const RunStats &s = result.tenants[t];
        error = checkAccounting(s);
        if (!error.empty())
            return "tenant " + std::to_string(t) + ": " + error;
        sum.accesses += s.accesses;
        sum.tlbL1Hits += s.tlbL1Hits;
        sum.tlbL2Hits += s.tlbL2Hits;
        sum.tlbMisses += s.tlbMisses;
        sum.faults += s.faults;
        sum.totalCycles += s.totalCycles;
        sum.walkCycles += s.walkCycles;
        sum.dataCycles += s.dataCycles;
        sum.computeCycles += s.computeCycles;
        sum.dyn.events += s.dyn.events;
        sum.dyn.tlbInvalidated += s.dyn.tlbInvalidated;
        sum.dyn.ptNodesFreed += s.dyn.ptNodesFreed;
        walks += s.walkLatency.count();
    }
    const RunStats &a = result.aggregate;
    const bool same =
        sum.accesses == a.accesses && sum.tlbL1Hits == a.tlbL1Hits &&
        sum.tlbL2Hits == a.tlbL2Hits && sum.tlbMisses == a.tlbMisses &&
        sum.faults == a.faults && sum.totalCycles == a.totalCycles &&
        sum.walkCycles == a.walkCycles && sum.dataCycles == a.dataCycles &&
        sum.computeCycles == a.computeCycles &&
        sum.dyn.events == a.dyn.events &&
        sum.dyn.tlbInvalidated == a.dyn.tlbInvalidated &&
        sum.dyn.ptNodesFreed == a.dyn.ptNodesFreed &&
        walks == a.walkLatency.count() && walks == a.walkHist.count();
    return same ? "" : "per-tenant RunStats do not sum to the aggregate";
}

double
distinctSetupSeconds(const std::vector<exp::CellResult> &cells,
                     const std::vector<std::vector<std::size_t>> &groups,
                     std::string &problem)
{
    // Measured setup times of two environments are never bit-equal, so
    // fewer distinct values than groups means groups shared one.
    std::set<double> distinct;
    double total = 0.0;
    for (const std::vector<std::size_t> &group : groups) {
        const double setup = cells[group.front()].stats.profile.envSetupSec;
        for (const std::size_t i : group) {
            if (cells[i].stats.profile.envSetupSec != setup) {
                problem = "cell " + std::to_string(i) +
                          " reports another environment's setup time "
                          "than its group";
            }
        }
        distinct.insert(setup);
        total += setup;
    }
    if (distinct.size() != groups.size()) {
        problem = std::to_string(distinct.size()) +
                  " environments were built for " +
                  std::to_string(groups.size()) + " declared groups";
    }
    return total;
}

namespace
{

RunStats
consistentStats()
{
    RunStats s;
    s.accesses = 10;
    s.tlbL1Hits = 6;
    s.tlbL2Hits = 3;
    s.tlbMisses = 1;
    s.computeCycles = 40;
    s.dataCycles = 50;
    s.walkCycles = 30;
    s.totalCycles = 120;
    s.walkLatency.sample(30);
    s.walkHist.sample(30);
    return s;
}

void
expect(bool ok, const char *what, std::vector<std::string> &problems)
{
    if (!ok)
        problems.push_back(std::string("self-test: ") + what);
}

} // namespace

void
runSelfTests(std::vector<std::string> &problems)
{
    // A corrupted stats record is counted as a failed run.
    {
        Outcome outcome;
        outcome.record("self-test/consistent",
                       checkAccounting(consistentStats()));
        RunStats lostMiss = consistentStats();
        lostMiss.tlbMisses = 0;
        RunStats badTotal = consistentStats();
        badTotal.totalCycles += 1;
        outcome.record("self-test/corrupt-tlb", checkAccounting(lostMiss));
        outcome.record("self-test/corrupt-cycles",
                       checkAccounting(badTotal));
        expect(outcome.attempted == 3 && outcome.failed == 2,
               "corrupted stats records are counted as failed", problems);
    }

    // Tenants must sum to the multi-core aggregate.
    {
        mc::McResult result;
        result.tenants = {consistentStats(), consistentStats()};
        result.aggregate = consistentStats();
        result.aggregate.merge(consistentStats());
        expect(checkMcResult(result).empty(),
               "a consistent multi-core result passes", problems);
        result.aggregate.dataCycles += 5;
        result.aggregate.totalCycles += 5;
        expect(!checkMcResult(result).empty(),
               "an aggregate that is not the tenants' sum fails",
               problems);
    }

    // Setup is counted once per environment group, not once per cell.
    {
        std::vector<exp::CellResult> cells(6);
        const std::vector<std::vector<std::size_t>> groups = {
            {0, 1}, {2, 3, 4}, {5}};
        const double setupOfGroup[] = {1.0, 2.0, 4.0};
        for (std::size_t g = 0; g < groups.size(); ++g) {
            for (const std::size_t i : groups[g])
                cells[i].stats.profile.envSetupSec = setupOfGroup[g];
        }
        std::string problem;
        expect(distinctSetupSeconds(cells, groups, problem) == 7.0 &&
                   problem.empty(),
               "setup sums each environment group once", problems);
        cells[1].stats.profile.envSetupSec = 1.5;
        distinctSetupSeconds(cells, groups, problem);
        expect(!problem.empty(),
               "a cell with another group's setup time is reported",
               problems);
        for (exp::CellResult &cell : cells)
            cell.stats.profile.envSetupSec = 1.0;
        problem.clear();
        distinctSetupSeconds(cells, groups, problem);
        expect(!problem.empty(),
               "groups sharing one environment are reported", problems);
    }

    // The replay comparison notices a single differing cycle.
    {
        const RunStats stats = consistentStats();
        ReplayTotals replay;
        replay.walkCycles = stats.walkCycles;
        replay.dataCycles = stats.dataCycles;
        replay.tlbMisses = stats.tlbMisses;
        expect(compareReplay(replay, stats).empty(),
               "an exact replay compares equal", problems);
        replay.dataCycles += 1;
        expect(!compareReplay(replay, stats).empty(),
               "a replay off by one cycle is reported", problems);
    }
}

} // namespace perfbench
