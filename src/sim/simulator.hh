/**
 * @file
 * The trace-driven simulation loop and its statistics, following the
 * paper's methodology (Section 4): for every workload access, look up
 * the TLBs; on a miss, perform the (possibly nested) page walk with
 * latencies summed along the serial pointer chase; optionally interleave
 * one random co-runner access per workload access (SMT colocation).
 *
 * The execution-time model — used for Figure 2 / Table 1 / Table 6 —
 * charges per access: the workload's compute cycles, the data-access
 * latency, and the full walk latency on a TLB miss.
 *
 * The per-access work itself lives in AccessStream
 * (sim/access_stream.hh), which the multi-core model (src/mc) drives
 * too; Simulator adds what only a serial run has: one caller-owned
 * Machine, parallel-replay seeking and Timeline epochs at exact
 * multiples of the epoch length. The 1-core/1-tenant mc shape is
 * pinned bit-identical to Simulator::run, RunStats and counters
 * included (tests/test_mc.cc).
 */

#ifndef ASAP_SIM_SIMULATOR_HH
#define ASAP_SIM_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dyn/os_events.hh"
#include "obs/histogram.hh"
#include "obs/profile.hh"
#include "sim/machine.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace asap
{

namespace obs
{
class Timeline;
}

struct RunConfig
{
    std::uint64_t warmupAccesses = 100'000;
    std::uint64_t measureAccesses = 500'000;
    bool colocation = false;
    /** Co-runner memory accesses per workload access. The paper issues
     *  one request per application access; the co-runner being a pure
     *  memory-bound SMT thread, higher ratios model its higher memory
     *  intensity while the app stalls on compute/misses. */
    unsigned corunnerPerAccess = 1;
    /** Ideal-TLB run: no misses, no walks (Table 6 methodology). */
    bool perfectTlb = false;
    std::uint64_t seed = 7;

    /**
     * Parallel replay (src/sim/parallel_replay.hh): reposition a
     * seekable workload's address stream to stored access
     * warmupAccesses + measureSkip between the warmup and measure
     * phases, so a shard measures its slice of the stream after the
     * shared warmup prefix. Requires Workload::seekable().
     */
    bool measureSeek = false;
    std::uint64_t measureSkip = 0;
};

/** Lifetime counters of one ASAP engine over a run (incl. warmup). */
struct AsapEngineStats
{
    std::uint64_t triggers = 0;    ///< walk starts seen
    std::uint64_t rangeHits = 0;   ///< range-register matches
    std::uint64_t attempted = 0;   ///< per-level prefetches attempted
    std::uint64_t issued = 0;      ///< accepted by the hierarchy

    /** The AsapEngineStats schema (part of RunStats's, below). */
    template <typename Visitor, typename... Stats>
    static void
    forEachField(Visitor &&v, Stats &...stats)
    {
        v("triggers", stats.triggers...);
        v("rangeHits", stats.rangeHits...);
        v("attempted", stats.attempted...);
        v("issued", stats.issued...);
    }
};

struct RunStats
{
    std::uint64_t accesses = 0;
    std::uint64_t tlbL1Hits = 0;
    std::uint64_t tlbL2Hits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t faults = 0;

    SampleStat walkLatency;
    /** Per-PT-level serving distribution (1D walks; Figure 9). */
    std::array<LevelDistribution, 6> levelDist{};

    /** Full walk-latency distribution (p50/p90/p99/p99.9; Figure 3's
     *  shape, which the SampleStat mean cannot carry). */
    obs::Histogram walkHist;
    /** Data-access (non-walk) latency distribution. */
    obs::Histogram dataHist;
    /** Cycles each PT level contributed to the serial chase (1D walks;
     *  the distribution behind Figure 9's mean shares). */
    std::array<obs::Histogram, 6> levelHist{};

    std::uint64_t totalCycles = 0;
    std::uint64_t walkCycles = 0;
    std::uint64_t dataCycles = 0;
    std::uint64_t computeCycles = 0;

    /** Prefetch-engine effectiveness (zero when ASAP is off). */
    AsapEngineStats appAsap;
    AsapEngineStats hostAsap;

    /** OS-dynamics activity (all zero for static runs; see
     *  dyn/os_events.hh). */
    OsDynStats dyn;

    /** End-of-run component counters: core-shared mem/TLB, then
     *  appendAddressSpaceCounters. Deterministic — safe for CSV
     *  columns. */
    Counters counters;

    /** Wall-clock self-profile (nondeterministic; JSON artifacts
     *  only, never compared; outside the schema). */
    obs::SelfProfile profile;

    double
    avgWalkLatency() const
    {
        return walkLatency.mean();
    }

    /** L2-TLB misses per kilo-access (the paper's MPKI proxy). */
    double
    mpka() const
    {
        return accesses == 0 ? 0.0
                             : 1000.0 * static_cast<double>(tlbMisses) /
                                   static_cast<double>(accesses);
    }

    /** L2 S-TLB miss ratio (misses / L1-miss lookups). */
    double
    l2MissRatio() const
    {
        const std::uint64_t l2Lookups = tlbL2Hits + tlbMisses;
        return l2Lookups == 0 ? 0.0
                              : static_cast<double>(tlbMisses) /
                                    static_cast<double>(l2Lookups);
    }

    /** Fraction of execution time spent in page walks (Figure 2). */
    double
    walkCycleFraction() const
    {
        return totalCycles == 0
                   ? 0.0
                   : static_cast<double>(walkCycles) /
                         static_cast<double>(totalCycles);
    }

    /**
     * Fold another run's statistics in (parallel-replay shard merge,
     * src/sim/parallel_replay.hh). Every aggregate here is a sum of
     * per-access contributions, so merging is exact and associative:
     * counts/cycles add, SampleStat/LevelDistribution/obs::Histogram
     * merge bucket- and moment-wise, and the counter lists —
     * identical name lists for identically configured
     * machines — add positionally. The wall-clock self-profile is NOT
     * merged (per-shard wall times overlap); callers time the whole
     * parallel run themselves.
     */
    void merge(const RunStats &other);

    /**
     * The RunStats schema: v("name", field...) once per field, with
     * that member of every @p stats; appAsap, hostAsap and dyn are
     * visited whole (they have their own forEachField). merge, diff,
     * the journal codec and trace_convert --verify are generated from
     * it, so a new field needs one line here. The order is the
     * journal's key order (exp::Json keeps insertion order, so it fixes
     * the journal bytes). profile is deliberately absent.
     */
    template <typename Visitor, typename... Stats>
    static void
    forEachField(Visitor &&v, Stats &...stats)
    {
        v("accesses", stats.accesses...);
        v("tlbL1Hits", stats.tlbL1Hits...);
        v("tlbL2Hits", stats.tlbL2Hits...);
        v("tlbMisses", stats.tlbMisses...);
        v("faults", stats.faults...);
        v("totalCycles", stats.totalCycles...);
        v("walkCycles", stats.walkCycles...);
        v("dataCycles", stats.dataCycles...);
        v("computeCycles", stats.computeCycles...);
        v("walkLatency", stats.walkLatency...);
        v("levelDist", stats.levelDist...);
        v("walkHist", stats.walkHist...);
        v("dataHist", stats.dataHist...);
        v("levelHist", stats.levelHist...);
        v("appAsap", stats.appAsap...);
        v("hostAsap", stats.hostAsap...);
        v("dyn", stats.dyn...);
        v("counters", stats.counters...);
    }
};

/**
 * Append one address space's counters to @p counters: the translation
 * counters summed over @p machines (pointers to every Machine that ran
 * it: one for a serial run, one per core for an mc tenant), then
 * @p system's, then @p dyn's. The serial list is the core-shared
 * mem/TLB counters followed by this; an mc tenant's is this followed
 * by its mc.* attribution; the mc aggregate sums it over tenants.
 */
template <typename MachinePtrs>
void
appendAddressSpaceCounters(Counters &counters, const MachinePtrs &machines,
                           const System &system, const OsDynStats &dyn)
{
    Counters translation;
    for (const auto &machine : machines) {
        Counters one;
        machine->appendTranslationCounters(one);
        mergeCounters(translation, one);
    }
    for (auto &[name, value] : translation)
        appendCounter(counters, std::move(name), value);
    system.appendCounters(counters);
    dyn.appendCounters(counters);
}

/** The first schema field in which @p a and @p b differ ("" when none),
 *  as a path: "tlbMisses", "levelDist[3]", "hostAsap.issued",
 *  "counters[<name>]" ("counters" when one list is a prefix of the
 *  other). Exact: moments and buckets included. */
std::string diff(const RunStats &a, const RunStats &b);

class Simulator
{
  public:
    Simulator(System &system, Machine &machine, Workload &workload)
        : system_(system), machine_(machine), workload_(workload)
    {}

    RunStats run(const RunConfig &config);

    /**
     * Attach (or detach, with nullptr) a time-resolved telemetry
     * probe (obs/timeline.hh). With a timeline attached, run() splits
     * the *measure* phase into epoch-sized AccessStream::advance calls
     * and samples counters/histograms/gauges at each boundary — the
     * address stream, every simulated event, and every RunStats bit are
     * identical to the unchunked run (workloads generate addresses
     * one at a time, so batch partitioning cannot change the draw
     * order; pinned against the Golden suite by
     * tests/test_timeline.cc). Detached (the default) costs nothing:
     * one null check per run, zero branches in the hot loops.
     */
    void attachTimeline(obs::Timeline *timeline)
    { timeline_ = timeline; }

  private:
    System &system_;
    Machine &machine_;
    Workload &workload_;

    /** Null by default (zero-cost detached, like the trace sink). */
    obs::Timeline *timeline_ = nullptr;
};

} // namespace asap

#endif // ASAP_SIM_SIMULATOR_HH
