/**
 * @file
 * Spans for the traced benchmark run, and the benchmark's own replay
 * of a simulation run through the public Machine API.
 *
 * Spans are recorded from the benchmark's files around each call into
 * a layer (System build, Workload::setup, Machine construction,
 * Workload::nextBatch, Machine::translate/dataAccess/corunnerAccess,
 * MultiCoreSimulator::addTenant/run), kept in memory per thread, and
 * written out when the run ends. Per-access calls are sampled: one
 * access in sampleEvery is timed, because timing every call would add
 * a large share to the very loop it measures.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace perfbench
{

enum class SpanName : std::uint8_t
{
    Env,            ///< one environment group (System + prefault + cells)
    SystemBuild,    ///< System construction
    Prefault,       ///< Workload::setup (VMAs + prefault)
    Cell,           ///< one replayed run
    MachineBuild,   ///< Machine construction
    NextBatch,      ///< Workload::nextBatch
    TlbHit,         ///< Machine::translate that hit a TLB
    WalkMiss,       ///< Machine::translate that walked
    DataAccess,     ///< Machine::dataAccess
    CorunnerAccess, ///< Machine::corunnerAccess
    AddTenant,      ///< MultiCoreSimulator::addTenant
    McRun,          ///< MultiCoreSimulator::run
    Count
};

const char *spanNameOf(SpanName name);

/** No parent (a root span). */
constexpr std::uint32_t noSpan = ~std::uint32_t{0};

struct Span
{
    std::int64_t start;
    std::int64_t end;
    std::uint32_t parent;   ///< index in the same SpanLog, or noSpan
    std::uint32_t run;      ///< run id: the cell or tenant index
    SpanName name;
};

/** One thread's spans. Not shared between threads. */
class SpanLog
{
  public:
    explicit SpanLog(unsigned thread = 0) : thread_(thread) {}

    static std::int64_t
    now()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::uint32_t
    open(SpanName name, std::uint32_t parent, std::uint32_t run)
    {
        spans_.push_back({now(), 0, parent, run, name});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void close(std::uint32_t id) { spans_[id].end = now(); }

    void
    add(SpanName name, std::uint32_t parent, std::uint32_t run,
        std::int64_t start, std::int64_t end)
    {
        spans_.push_back({start, end, parent, run, name});
    }

    unsigned thread() const { return thread_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    unsigned thread_;
    std::vector<Span> spans_;
};

/** Per-access calls are timed for one access in this many. */
constexpr std::uint64_t sampleEvery = 512;

/** Measure-window totals of a replay, compared with the RunStats of
 *  the untraced run of the same cell. */
struct ReplayTotals
{
    std::uint64_t accesses = 0;     ///< warmup + measure
    std::uint64_t walkCycles = 0;
    std::uint64_t dataCycles = 0;
    std::uint64_t tlbMisses = 0;
    double loopSeconds = 0.0;       ///< host time in the access loop
};

/**
 * Build a Machine over @p system and run @p workload through it with
 * the Simulator's arithmetic (seeds, batches, cycle sums, streaming
 * rule, co-runner RNG), recording spans under @p cellSpan in @p log.
 * With no log the same loop runs untraced: the baseline of the
 * tracing overhead.
 */
ReplayTotals replayCell(asap::System &system, asap::Workload &workload,
                        const asap::MachineConfig &machineConfig,
                        const asap::RunConfig &run, SpanLog *log,
                        std::uint32_t cellSpan, std::uint32_t runId);

/** Empty when the replay reproduced @p stats exactly. */
std::string compareReplay(const ReplayTotals &replay,
                          const asap::RunStats &stats);

/** Per-layer host times aggregated over a set of span logs. */
struct LayerTimes
{
    double genNsPerAddress = 0.0;
    double systemBuildSec = 0.0;
    double prefaultSec = 0.0;
    double machineBuildMs = 0.0;   ///< mean per Machine
    double tlbHitNs = 0.0;
    double tlbHitP50Ns = 0.0;
    double walkMissNs = 0.0;
    double walkMissP99Ns = 0.0;
    double dataNs = 0.0;
    double corunnerNs = 0.0;
    double addTenantMs = 0.0;      ///< mean per tenant
};

/** @p addresses: addresses the NextBatch spans produced in total. */
LayerTimes layerTimes(const std::vector<const SpanLog *> &logs,
                      std::uint64_t addresses);

/** Write every span as CSV (thread,id,parent,run,name,start_ns,
 *  end_ns); false on an I/O error. */
bool writeSpans(const std::string &path,
                const std::vector<const SpanLog *> &logs);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
