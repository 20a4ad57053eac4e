/**
 * @file
 * AccessStream: one workload's address stream driven through a
 * Machine — the per-access simulation kernel shared by the serial
 * Simulator and the multi-core model (src/mc).
 *
 * Per access (Section 4 methodology): translate through the TLBs and,
 * on a miss, the (possibly nested) page walk — or System::touch under
 * an ideal TLB (Table 6); the demand data access, with streaming
 * next-line accesses charged at L1 latency; the stream's clock
 * advanced by compute + data + walk cycles; and the SMT co-runner's
 * random accesses. OS events (src/dyn) fire between batches at exact
 * access offsets.
 *
 * A stream owns everything that belongs to the address stream rather
 * than to the hardware running it: the workload, its two RNGs, the
 * streaming-detection state, the OS-event cursor and the RunStats.
 * The Machine and the clock are passed per call, so the multi-core
 * scheduler can move a stream across cores between quanta; batch and
 * quantum boundaries carry no per-access state, so any partition of
 * the stream into advance() calls yields identical RunStats.
 */

#ifndef ASAP_SIM_ACCESS_STREAM_HH
#define ASAP_SIM_ACCESS_STREAM_HH

#include <cstdint>
#include <optional>

#include "common/rng.hh"
#include "common/types.hh"
#include "dyn/dynamics.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace asap
{

class AccessStream
{
  public:
    AccessStream(System &system, Workload &workload)
        : system_(system), workload_(workload)
    {}

    /**
     * Run start: seed the address and co-runner RNGs from @p seed,
     * reset the workload, and — when the workload carries an OS-event
     * stream — route the events' hardware side effects to @p target,
     * which must outlive the run. Snapshots the ASAP region-lifecycle
     * counters this run reports as deltas.
     */
    void start(std::uint64_t seed, ShootdownTarget &target);

    /**
     * Simulate the next @p accesses accesses of the stream on
     * @p machine, advancing @p now. @p measuring selects whether they
     * are recorded in the RunStats (warmup accesses are not).
     */
    void advance(Machine &machine, Cycles &now, std::uint64_t accesses,
                 bool measuring, const RunConfig &config);

    /** Run end: fire the events due at the end of the stream (stamped
     *  @p now), fill the region deltas and totalCycles. */
    void finish(Cycles now);

    /** Fold @p machine's ASAP engine counters into the RunStats; call
     *  once per Machine the stream ran on, after finish(). */
    void addEngineStats(const Machine &machine);

    /** The OS-dynamics counters so far, region deltas included (what
     *  finish() stores) — for mid-run counter snapshots. */
    OsDynStats dynSoFar() const;

    RunStats &stats() { return stats_; }

  private:
    template <bool Measuring, bool PerfectTlb>
    void runBatches(Machine &machine, Cycles &now, std::uint64_t accesses,
                    const RunConfig &config);

    System &system_;
    Workload &workload_;
    Rng rng_;
    Rng corunnerRng_;
    VirtAddr lastVa_ = ~VirtAddr{0};
    /** Accesses consumed so far this run (warmup + measure) — the
     *  clock OS events fire against. */
    std::uint64_t consumed_ = 0;
    unsigned cpa_ = 1;
    /** Engaged only when the workload carries an OS-event stream. */
    std::optional<OsDynamics> dyn_;
    RunStats stats_;

    /** App-dimension ASAP allocator counters at run start. */
    struct RegionSnapshot
    {
        std::uint64_t holes = 0, relocated = 0, released = 0,
                      releasedFrames = 0;
    } regions0_;
};

} // namespace asap

#endif // ASAP_SIM_ACCESS_STREAM_HH
