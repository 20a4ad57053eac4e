#include "sim/access_stream.hh"

#include "os/pt_allocators.hh"

namespace asap
{

namespace
{

/** Addresses generated per Workload::nextBatch call. */
constexpr std::size_t accessBatch = 1024;

/** Add @p engine's lifetime counters (none when absent) to @p stats. */
void
addEngine(AsapEngineStats &stats, const AsapEngine *engine)
{
    if (engine) {
        stats.triggers += engine->triggers();
        stats.rangeHits += engine->rangeHits();
        stats.attempted += engine->attempted();
        stats.issued += engine->issued();
    }
}

} // namespace

void
AccessStream::start(std::uint64_t seed, ShootdownTarget &target)
{
    rng_ = Rng(seed);
    corunnerRng_ = Rng(seed ^ 0x5eed);
    workload_.reset(rng_);
    cpa_ = workload_.computeCyclesPerAccess();
    lastVa_ = ~VirtAddr{0};
    consumed_ = 0;
    stats_ = RunStats{};

    // OS dynamics: a workload may carry an event stream (churn
    // profiles, replayed dynamic traces). Events fire between batches
    // at exact access offsets; with no stream the loop is untouched.
    dyn_.reset();
    const OsEventStream *events = workload_.events();
    if (events && !events->empty())
        dyn_.emplace(events, system_, target);

    // ASAP region-lifecycle counters are reported as this run's deltas.
    if (const AsapPtAllocator *alloc = system_.appAsapAllocator()) {
        regions0_ = {alloc->holesCreatedByGrowth(),
                     alloc->framesRelocatedForGrowth(),
                     alloc->regionsReleased(), alloc->releasedFrames()};
    }
}

void
AccessStream::advance(Machine &machine, Cycles &now,
                      std::uint64_t accesses, bool measuring,
                      const RunConfig &config)
{
    if (measuring) {
        if (config.perfectTlb)
            runBatches<true, true>(machine, now, accesses, config);
        else
            runBatches<true, false>(machine, now, accesses, config);
    } else {
        if (config.perfectTlb)
            runBatches<false, true>(machine, now, accesses, config);
        else
            runBatches<false, false>(machine, now, accesses, config);
    }
}

/**
 * Measuring and PerfectTlb are compile-time so the inner loop carries
 * neither branch; addresses are consumed in batches (one virtual
 * dispatch per batch, see Workload::nextBatch).
 */
template <bool Measuring, bool PerfectTlb>
void
AccessStream::runBatches(Machine &machine, Cycles &now,
                         std::uint64_t accesses, const RunConfig &config)
{
    const bool colocation = config.colocation;
    const unsigned corunnerPerAccess = config.corunnerPerAccess;
    const Cycles streamingLatency = machine.mem().config().l1d.latency;
    const unsigned cpa = cpa_;
    RunStats &stats = stats_;

    if (Measuring) {
        // accesses/compute are derived outside the loop; totalCycles is
        // the sum of the three components at finish().
        stats.accesses += accesses;
        stats.computeCycles += cpa * accesses;
    }

    VirtAddr vas[accessBatch];
    while (accesses > 0) {
        std::size_t batch = accesses < accessBatch
                                ? static_cast<std::size_t>(accesses)
                                : accessBatch;
        if (dyn_) {
            // Fire every event due at this point of the access stream,
            // then cap the batch so the next one lands exactly on the
            // next event's offset.
            dyn_->applyDue(consumed_, stats.dyn, now);
            const std::uint64_t gap = dyn_->gapUntilNext(consumed_);
            if (gap < batch)
                batch = static_cast<std::size_t>(gap);
        }
        accesses -= batch;
        // The generator draws only from rng and never observes machine
        // state, so producing a batch up front leaves every simulated
        // event in the exact order of an access-at-a-time loop.
        workload_.nextBatch(rng_, vas, batch);

        for (std::size_t i = 0; i < batch; ++i) {
            const VirtAddr va = vas[i];
            Cycles walkLatency = 0;
            Translation translation;
            if (PerfectTlb) {
                // Ideal TLB: translation is free (Table 6 methodology:
                // execution with page walks eliminated).
                translation = system_.touch(va).translation;
            } else {
                const Machine::TranslateResult result =
                    machine.translate(va, now);
                translation = result.translation;
                walkLatency = result.walkLatency;
                if (Measuring) {
                    switch (result.tlbLevel) {
                      case TlbHitLevel::L1:
                        ++stats.tlbL1Hits;
                        break;
                      case TlbHitLevel::L2:
                        ++stats.tlbL2Hits;
                        break;
                      case TlbHitLevel::Miss:
                        ++stats.tlbMisses;
                        break;
                    }
                    if (result.faulted)
                        ++stats.faults;
                    if (result.walked) {
                        stats.walkLatency.sample(walkLatency);
                        stats.walkHist.sample(walkLatency);
                        if (result.walk) {
                            for (unsigned level = 1; level <= 5;
                                 ++level) {
                                if (result.walk->requested[level]) {
                                    stats.levelDist[level].record(
                                        result.walk->servedBy[level]);
                                    stats.levelHist[level].sample(
                                        result.walk->levelLatency[level]);
                                }
                            }
                        }
                    }
                }
            }

            Cycles dataLatency =
                machine.dataAccess(translation.physAddrOf(va));
            // Streaming accesses are covered by the ubiquitous
            // next-line data prefetcher: the fill (and its cache
            // pressure) is real, but the core does not expose the miss
            // latency.
            if (va == lastVa_ + lineSize)
                dataLatency = streamingLatency;
            lastVa_ = va;

            now += cpa + dataLatency + walkLatency;
            if (Measuring) {
                stats.dataCycles += dataLatency;
                stats.walkCycles += walkLatency;
                stats.dataHist.sample(dataLatency);
            }

            // SMT co-runner: random accesses per workload access
            // (Section 4), contending for the shared cache hierarchy
            // only.
            if (colocation) {
                for (unsigned c = 0; c < corunnerPerAccess; ++c)
                    machine.corunnerAccess(corunnerRng_);
            }
        }
        consumed_ += batch;
    }
}

OsDynStats
AccessStream::dynSoFar() const
{
    OsDynStats d = stats_.dyn;
    if (const AsapPtAllocator *alloc = system_.appAsapAllocator()) {
        d.regionGrowthHoles = alloc->holesCreatedByGrowth() - regions0_.holes;
        d.regionRelocations =
            alloc->framesRelocatedForGrowth() - regions0_.relocated;
        d.regionsReleased = alloc->regionsReleased() - regions0_.released;
        d.regionFramesReleased =
            alloc->releasedFrames() - regions0_.releasedFrames;
    }
    return d;
}

void
AccessStream::finish(Cycles now)
{
    // Events scheduled exactly at the end of the stream still fire
    // (e.g. a final tenant departure).
    if (dyn_)
        dyn_->applyDue(consumed_, stats_.dyn, now);
    stats_.dyn = dynSoFar();
    stats_.totalCycles =
        stats_.computeCycles + stats_.dataCycles + stats_.walkCycles;
}

void
AccessStream::addEngineStats(const Machine &machine)
{
    addEngine(stats_.appAsap, machine.appEngine());
    addEngine(stats_.hostAsap, machine.hostEngine());
}

} // namespace asap
