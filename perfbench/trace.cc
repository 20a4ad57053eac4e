#include "trace.hh"

#include <algorithm>
#include <array>
#include <cstdio>

#include "bench.hh"

namespace perfbench
{

using namespace asap;

namespace
{

/** Addresses per Workload::nextBatch call, as in the Simulator. */
constexpr std::size_t accessBatch = 1024;

/**
 * Cost of the clock reads that bracket a timed call: the median of
 * back-to-back reads. Subtracted from per-access spans, whose calls
 * take tens of nanoseconds, so the timer is not reported as layer
 * time.
 */
double
timerFloorNs()
{
    static const double floor = [] {
        std::vector<double> deltas;
        for (int i = 0; i < 2001; ++i) {
            const std::int64_t a = SpanLog::now();
            const std::int64_t b = SpanLog::now();
            deltas.push_back(static_cast<double>(b - a));
        }
        return median(deltas);
    }();
    return floor;
}

} // namespace

const char *
spanNameOf(SpanName name)
{
    static constexpr std::array<const char *,
                                static_cast<std::size_t>(SpanName::Count)>
        names = {"env",      "os.system_build",   "os.prefault",
                 "cell",     "sim.machine_build", "workloads.next_batch",
                 "tlb.hit",  "walk.miss",         "mem.data",
                 "mem.corunner", "mc.add_tenant", "mc.run"};
    return names[static_cast<std::size_t>(name)];
}

ReplayTotals
replayCell(System &system, Workload &workload,
           const MachineConfig &machineConfig, const RunConfig &run,
           SpanLog *log, std::uint32_t cellSpan, std::uint32_t runId)
{
    const std::uint32_t buildSpan =
        log ? log->open(SpanName::MachineBuild, cellSpan, runId) : noSpan;
    Machine machine(system, machineConfig);
    if (log)
        log->close(buildSpan);

    // Simulator::run's set-up: the same two generators, the same reset.
    Rng rng(run.seed);
    Rng corunnerRng(run.seed ^ 0x5eed);
    workload.reset(rng);
    const Cycles cpa = workload.computeCyclesPerAccess();
    const Cycles streamingLatency = machine.mem().config().l1d.latency;
    const unsigned corunners = run.colocation ? run.corunnerPerAccess : 0;

    ReplayTotals totals;
    Cycles now = 0;
    VirtAddr lastVa = ~VirtAddr{0};
    std::uint64_t index = 0;
    VirtAddr vas[accessBatch];

    const double loopStart = nowSeconds();
    for (const bool measuring : {false, true}) {
        std::uint64_t left =
            measuring ? run.measureAccesses : run.warmupAccesses;
        totals.accesses += left;
        while (left > 0) {
            const std::size_t batch =
                static_cast<std::size_t>(std::min<std::uint64_t>(
                    left, accessBatch));
            left -= batch;
            const std::int64_t genStart = log ? SpanLog::now() : 0;
            workload.nextBatch(rng, vas, batch);
            if (log) {
                log->add(SpanName::NextBatch, cellSpan, runId, genStart,
                         SpanLog::now());
            }

            for (std::size_t i = 0; i < batch; ++i, ++index) {
                const VirtAddr va = vas[i];
                const bool timed = log && index % sampleEvery == 0;

                std::int64_t t0 = timed ? SpanLog::now() : 0;
                const Machine::TranslateResult result =
                    machine.translate(va, now);
                std::int64_t t1 = timed ? SpanLog::now() : 0;
                Cycles dataLatency =
                    machine.dataAccess(result.translation.physAddrOf(va));
                if (timed) {
                    const std::int64_t t2 = SpanLog::now();
                    log->add(result.walked ? SpanName::WalkMiss
                                           : SpanName::TlbHit,
                             cellSpan, runId, t0, t1);
                    log->add(SpanName::DataAccess, cellSpan, runId, t1,
                             t2);
                }
                // The next-line prefetcher hides streaming misses.
                if (va == lastVa + lineSize)
                    dataLatency = streamingLatency;
                lastVa = va;

                now += cpa + dataLatency + result.walkLatency;
                if (measuring) {
                    totals.walkCycles += result.walkLatency;
                    totals.dataCycles += dataLatency;
                    if (result.tlbLevel == TlbHitLevel::Miss)
                        ++totals.tlbMisses;
                }
                for (unsigned c = 0; c < corunners; ++c) {
                    t0 = timed ? SpanLog::now() : 0;
                    machine.corunnerAccess(corunnerRng);
                    if (timed) {
                        t1 = SpanLog::now();
                        log->add(SpanName::CorunnerAccess, cellSpan,
                                 runId, t0, t1);
                    }
                }
            }
        }
    }
    totals.loopSeconds = nowSeconds() - loopStart;
    return totals;
}

std::string
compareReplay(const ReplayTotals &replay, const RunStats &stats)
{
    if (replay.walkCycles == stats.walkCycles &&
        replay.dataCycles == stats.dataCycles &&
        replay.tlbMisses == stats.tlbMisses)
        return "";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "replay differs: walkCycles %llu vs %llu, dataCycles "
                  "%llu vs %llu, tlbMisses %llu vs %llu",
                  static_cast<unsigned long long>(replay.walkCycles),
                  static_cast<unsigned long long>(stats.walkCycles),
                  static_cast<unsigned long long>(replay.dataCycles),
                  static_cast<unsigned long long>(stats.dataCycles),
                  static_cast<unsigned long long>(replay.tlbMisses),
                  static_cast<unsigned long long>(stats.tlbMisses));
    return buf;
}

LayerTimes
layerTimes(const std::vector<const SpanLog *> &logs,
           std::uint64_t addresses)
{
    constexpr std::size_t names = static_cast<std::size_t>(SpanName::Count);
    std::array<double, names> totalNs{};
    std::array<std::uint64_t, names> count{};
    std::vector<double> hits, misses;
    const double floor = timerFloorNs();

    for (const SpanLog *log : logs) {
        for (const Span &span : log->spans()) {
            const std::size_t n = static_cast<std::size_t>(span.name);
            double ns = static_cast<double>(span.end - span.start);
            switch (span.name) {
              case SpanName::TlbHit:
              case SpanName::WalkMiss:
              case SpanName::DataAccess:
              case SpanName::CorunnerAccess:
                ns = std::max(0.0, ns - floor);
                break;
              default:
                break;
            }
            totalNs[n] += ns;
            ++count[n];
            if (span.name == SpanName::TlbHit)
                hits.push_back(ns);
            else if (span.name == SpanName::WalkMiss)
                misses.push_back(ns);
        }
    }

    const auto mean = [&](SpanName name) {
        const std::size_t n = static_cast<std::size_t>(name);
        return count[n] == 0 ? 0.0 : totalNs[n] / count[n];
    };
    const auto total = [&](SpanName name) {
        return totalNs[static_cast<std::size_t>(name)];
    };

    LayerTimes t;
    t.genNsPerAddress =
        addresses == 0 ? 0.0 : total(SpanName::NextBatch) / addresses;
    t.systemBuildSec = total(SpanName::SystemBuild) * 1e-9;
    t.prefaultSec = total(SpanName::Prefault) * 1e-9;
    t.machineBuildMs = mean(SpanName::MachineBuild) * 1e-6;
    t.tlbHitNs = mean(SpanName::TlbHit);
    t.tlbHitP50Ns = hits.empty() ? 0.0 : percentile(hits, 0.50);
    t.walkMissNs = mean(SpanName::WalkMiss);
    t.walkMissP99Ns = misses.empty() ? 0.0 : percentile(misses, 0.99);
    t.dataNs = mean(SpanName::DataAccess);
    t.corunnerNs = mean(SpanName::CorunnerAccess);
    t.addTenantMs = mean(SpanName::AddTenant) * 1e-6;
    return t;
}

bool
writeSpans(const std::string &path,
           const std::vector<const SpanLog *> &logs)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "thread,id,parent,run,name,start_ns,end_ns\n");
    for (const SpanLog *log : logs) {
        const std::vector<Span> &spans = log->spans();
        for (std::size_t id = 0; id < spans.size(); ++id) {
            const Span &s = spans[id];
            std::fprintf(out, "%u,%zu,%lld,%u,%s,%lld,%lld\n",
                         log->thread(), id,
                         s.parent == noSpan
                             ? -1LL
                             : static_cast<long long>(s.parent),
                         s.run, spanNameOf(s.name),
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end));
        }
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
