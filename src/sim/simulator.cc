#include "sim/simulator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/timeline.hh"
#include "os/pt_allocators.hh"
#include "sim/access_stream.hh"

namespace asap
{

namespace
{

/** A serial run's OS-event side effects land on its single Machine. */
class MachineShootdownTarget final : public ShootdownTarget
{
  public:
    explicit MachineShootdownTarget(Machine &machine) : machine_(machine)
    {}

    obs::TraceSink *
    traceSink() const override
    {
        return machine_.traceSink();
    }

    Machine::InvalidateCounts
    invalidateRange(VirtAddr start, VirtAddr end) override
    {
        return machine_.invalidateRange(start, end);
    }

    void refreshDescriptors() override { machine_.refreshDescriptors(); }

  private:
    Machine &machine_;
};

/** RunStats::merge, per schema field type. */
struct MergeField
{
    void
    operator()(const char *, std::uint64_t &sum, std::uint64_t add) const
    {
        sum += add;
    }

    /** SampleStat, LevelDistribution, obs::Histogram, OsDynStats. */
    template <typename T>
    auto
    operator()(const char *, T &into, const T &from) const
        -> decltype(into.merge(from))
    {
        into.merge(from);
    }

    template <typename T, std::size_t N>
    void
    operator()(const char *name, std::array<T, N> &into,
               const std::array<T, N> &from) const
    {
        for (std::size_t i = 0; i < N; ++i)
            (*this)(name, into[i], from[i]);
    }

    void
    operator()(const char *, AsapEngineStats &into,
               const AsapEngineStats &from) const
    {
        AsapEngineStats::forEachField(*this, into, from);
    }

    void
    operator()(const char *, Counters &into, const Counters &from) const
    {
        mergeCounters(into, from);
    }
};

/** diff(), per schema field type: records the path of the first
 *  mismatch into @p first. */
struct DiffField
{
    std::string prefix;
    std::string &first;

    template <typename T>
    auto
    operator()(const std::string &name, const T &a, const T &b) const
        -> decltype(void(a == b))
    {
        if (first.empty() && !(a == b))
            first = prefix + name;
    }

    template <typename T, std::size_t N>
    void
    operator()(const std::string &name, const std::array<T, N> &a,
               const std::array<T, N> &b) const
    {
        for (std::size_t i = 0; i < N; ++i)
            (*this)(strprintf("%s[%zu]", name.c_str(), i), a[i], b[i]);
    }

    void
    operator()(const std::string &name, const Counters &a,
               const Counters &b) const
    {
        const auto at = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
        if (at.first != a.end() && at.second != b.end())
            (*this)(name + "[" + at.first->first + "]", *at.first, *at.second);
        else
            (*this)(name, a.size(), b.size());
    }

    /** AsapEngineStats, OsDynStats: their own fields, prefixed. */
    template <typename T>
    auto
    operator()(const std::string &name, const T &a, const T &b) const
        -> decltype(T::forEachField(*this, a, b))
    {
        T::forEachField(DiffField{prefix + name + ".", first}, a, b);
    }
};

} // namespace

void
RunStats::merge(const RunStats &other)
{
    // Parallel replay rejects dynamic traces, so there dyn is all zero
    // — but merge stays total so any aggregation can rely on it.
    forEachField(MergeField{}, *this, other);
}

std::string
diff(const RunStats &a, const RunStats &b)
{
    std::string first;
    RunStats::forEachField(DiffField{"", first}, a, b);
    return first;
}

RunStats
Simulator::run(const RunConfig &config)
{
    MachineShootdownTarget target(machine_);
    AccessStream stream(system_, workload_);
    stream.start(config.seed, target);
    RunStats &stats = stream.stats();
    Cycles now = 0;
    const AsapPtAllocator *appAllocator = system_.appAsapAllocator();

    // Parallel replay: a shard measures its slice of the stream. The
    // warmup prefix ran as usual (identical machine state across
    // shards); reposition the stored stream at the slice start. With
    // measureSkip 0 (one shard) the seek is positionally a no-op and
    // the run is bit-identical to a plain serial one — the equivalence
    // tests/test_parallel.cc pins.
    const auto seekForMeasure = [&] {
        if (config.measureSeek)
            workload_.seekTo(config.warmupAccesses + config.measureSkip);
    };

    // Counter collection shared by the timeline's epoch boundaries and
    // the end-of-run snapshot below: the identical name list and the
    // identical value sources, so the timeline's per-epoch deltas sum
    // to stats.counters exactly (tests/test_timeline.cc pins this).
    // Cold path only.
    const auto collectCounters = [&]() {
        Counters counters;
        Machine::appendMemTlbCounters(counters, machine_.mem(),
                                      machine_.tlb());
        appendAddressSpaceCounters(counters, std::array{&machine_},
                                   system_, stream.dynSoFar());
        return counters;
    };

    // Instantaneous occupancy/fragmentation gauges — state the lifetime
    // counters cannot express. Sampled only at epoch boundaries (and
    // once at end of run), never on the hot path.
    const auto collectGauges = [&]() {
        Counters gauges;
        const auto gauge = [&gauges](const char *name,
                                     std::uint64_t value) {
            gauges.emplace_back(name, value);
        };
        const auto permille = [](std::uint64_t part,
                                 std::uint64_t whole) -> std::uint64_t {
            return whole == 0 ? 0 : 1000 * part / whole;
        };
        TlbHierarchy &tlb = machine_.tlb();
        gauge("tlb.l1Valid", tlb.l1ValidEntries());
        gauge("tlb.l1ValidPermille",
              permille(tlb.l1ValidEntries(), tlb.l1Entries()));
        gauge("tlb.l2Valid", tlb.l2ValidEntries());
        gauge("tlb.l2ValidPermille",
              permille(tlb.l2ValidEntries(), tlb.l2Entries()));
        PageWalkCaches &pwc = machine_.appPwc();
        gauge("pwc.appValid", pwc.validEntries());
        gauge("pwc.appValidPermille",
              permille(pwc.validEntries(), pwc.capacityEntries()));
        gauge("pt.liveNodes", system_.appPt().nodeCount());
        gauge("pt.deadNodes", system_.appPt().deadNodeCount());
        BuddyAllocator &buddy = system_.machineFrames();
        gauge("buddy.freeFrames", buddy.freeFrames());
        const int largest = buddy.largestFreeOrder();
        gauge("buddy.largestFreeOrderPlus1",
              static_cast<std::uint64_t>(largest + 1));
        gauge("buddy.fragPermille", buddy.fragmentationPermille());
        if (appAllocator) {
            std::uint64_t live = 0, slots = 0, backed = 0;
            for (const auto *region : appAllocator->regions()) {
                ++live;
                slots += region->slots;
                backed += region->backedSlots;
            }
            gauge("asap.regions", live);
            gauge("asap.regionSlots", slots);
            gauge("asap.backedSlots", backed);
            gauge("asap.contigPermille",
                  slots == 0 ? 1000 : 1000 * backed / slots);
        }
        gauge("mshr.inflight", machine_.mem().inflightPrefetches());
        gauge("mshr.inflightHighWater",
              machine_.mem().inflightHighWater());
        return gauges;
    };

    const double phaseStart = obs::wallSeconds();
    stream.advance(machine_, now, config.warmupAccesses, false, config);
    stats.profile.warmupSec = obs::wallSeconds() - phaseStart;
    seekForMeasure();

    const std::uint64_t epochLen =
        timeline_ ? timeline_->epochAccesses() : 0;
    if (epochLen == 0) {
        stream.advance(machine_, now, config.measureAccesses, true,
                       config);
    } else {
        // Epoch chunking (see attachTimeline): every workload's
        // nextBatch draws addresses one at a time from its generation
        // core, so splitting the phase replays the identical stream.
        // The final boundary is sampled after the post-run bookkeeping
        // below, so the last epoch's cumulative counters equal
        // stats.counters exactly.
        std::uint64_t done = 0;
        while (done < config.measureAccesses) {
            const std::uint64_t chunk =
                std::min(epochLen, config.measureAccesses - done);
            stream.advance(machine_, now, chunk, true, config);
            done += chunk;
            if (done < config.measureAccesses) {
                timeline_->sample(done, now, collectCounters(),
                                  stats.walkHist, stats.dataHist,
                                  collectGauges());
            }
        }
    }
    stats.profile.measureSec =
        obs::wallSeconds() - phaseStart - stats.profile.warmupSec;
    stats.profile.accessesPerSec =
        stats.profile.measureSec > 0.0
            ? static_cast<double>(config.measureAccesses) /
                  stats.profile.measureSec
            : 0.0;

    stream.finish(now);
    stream.addEngineStats(machine_);

    // Snapshot every component counter into the run's result — the
    // sweep layer emits whatever appears here, so new counters need no
    // per-experiment column wiring.
    stats.counters = collectCounters();

    // The final epoch boundary: sampled *after* the end-of-stream OS
    // events and region-delta bookkeeping above, with the very vector
    // stored in stats — per-epoch deltas therefore sum to the lifetime
    // snapshot bit-exactly.
    if (timeline_) {
        timeline_->sample(config.measureAccesses, now, stats.counters,
                          stats.walkHist, stats.dataHist,
                          collectGauges());
    }
    return std::move(stats);
}

} // namespace asap
