/**
 * @file
 * Run one (workload, environment) cell with the walk-event trace sink
 * attached and export what happened:
 *
 *   run_inspect --spec mcf@tenants --env virt_2d_asap \
 *       --events trace.json --summary
 *
 * --events writes Chrome trace-event JSON (load in Perfetto or
 * chrome://tracing; simulated cycles render as microseconds, one
 * "thread" per machine dimension). --summary prints per-kind event
 * counts plus the run's headline statistics and latency percentiles.
 *
 * --timeline[=N] attaches an obs::Timeline sampling every N measured
 * accesses (default: measure/32) and merges its Perfetto *counter
 * tracks* (interval percentiles, occupancy gauges, per-epoch counter
 * deltas) into the --events document — spans and drift curves on one
 * timebase. --timeline-out writes the epoch table itself (JSONL, or
 * CSV when the path ends in .csv); a write failure is reported but
 * never kills the run (recoverable io_error).
 *
 * The workload spec is anything specByName accepts (suite names,
 * name@dynprofile, trace:path); the environment is a named preset over
 * the same EnvironmentOptions/MachineConfig plumbing the sweeps use.
 * ASAP_QUICK=1 applies the standard quick-mode scaling.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "mc/multicore.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"
#include "obs/trace_sink.hh"
#include "sim/environment.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic.hh"

using namespace asap;

namespace
{

struct EnvPreset
{
    const char *name;
    const char *blurb;
    EnvironmentOptions env;
    MachineConfig machine;
    bool colocation = false;
};

std::vector<EnvPreset>
envPresets()
{
    std::vector<EnvPreset> presets;

    EnvPreset native;
    native.name = "native";
    native.blurb = "native 1D walks, no prefetching";
    presets.push_back(native);

    EnvPreset nativeAsap;
    nativeAsap.name = "native_asap";
    nativeAsap.blurb = "native, ASAP placement + P1+P2 prefetching";
    nativeAsap.env.asapPlacement = true;
    nativeAsap.machine = makeMachineConfig(AsapConfig::p1p2());
    presets.push_back(nativeAsap);

    EnvPreset virt;
    virt.name = "virt_2d";
    virt.blurb = "virtualized 2D walks, no prefetching";
    virt.env.virtualized = true;
    presets.push_back(virt);

    EnvPreset virtAsap;
    virtAsap.name = "virt_2d_asap";
    virtAsap.blurb = "virtualized, guest+host ASAP (all four prefetchers)";
    virtAsap.env.virtualized = true;
    virtAsap.env.asapPlacement = true;
    virtAsap.machine =
        makeMachineConfig(AsapConfig::p1p2(), AsapConfig::p1p2());
    presets.push_back(virtAsap);

    EnvPreset hugepage;
    hugepage.name = "virt_hugepage_asap";
    hugepage.blurb = "virtualized, 2MB host pages, guest+host ASAP";
    hugepage.env.virtualized = true;
    hugepage.env.hostHugePages = true;
    hugepage.env.asapPlacement = true;
    hugepage.machine =
        makeMachineConfig(AsapConfig::p1p2(), AsapConfig::p2());
    presets.push_back(hugepage);

    EnvPreset clustered;
    clustered.name = "clustered_l2";
    clustered.blurb = "native, clustered L2 TLB";
    clustered.machine.tlb.clusteredL2 = true;
    presets.push_back(clustered);

    EnvPreset coloc;
    coloc.name = "coloc_asap";
    coloc.blurb = "native ASAP under SMT colocation";
    coloc.env.asapPlacement = true;
    coloc.machine = makeMachineConfig(AsapConfig::p1p2());
    coloc.colocation = true;
    presets.push_back(coloc);

    return presets;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --spec <workload> --env <preset> [options]\n"
        "\n"
        "  --spec NAME     workload (suite name, name@dynprofile, or\n"
        "                  trace:path — anything a sweep accepts)\n"
        "  --env NAME      environment preset (see below)\n"
        "  --events PATH   write Chrome trace-event JSON (Perfetto)\n"
        "  --timeline[=N]  sample a timeline epoch every N measured\n"
        "                  accesses (default measure/32); merges counter\n"
        "                  tracks into --events output\n"
        "  --timeline-out PATH\n"
        "                  write the epoch table (JSONL; CSV if PATH\n"
        "                  ends in .csv)\n"
        "  --summary       print per-kind event counts and run stats\n"
        "  --cores N       multi-core mode: schedule onto N cores\n"
        "  --tenants N     multi-core mode: N tenant copies of --spec\n"
        "                  (either flag > 1 switches to the src/mc\n"
        "                  simulator; IPI events land in --events, one\n"
        "                  gauge track per core in --timeline)\n"
        "  --seed N        run seed (default 7)\n"
        "  --accesses N    measured accesses (default: RunConfig default;\n"
        "                  ASAP_QUICK=1 shrinks it)\n"
        "  --capacity N    trace-ring capacity in events (default %zu)\n"
        "\n"
        "environment presets:\n",
        argv0, obs::TraceSink::defaultCapacity);
    for (const EnvPreset &preset : envPresets())
        std::fprintf(stderr, "  %-20s %s\n", preset.name, preset.blurb);
    return 2;
}

/** The real tool; main() below maps StatusError to exit(1). */
int
run(int argc, char **argv)
{
    std::string specName;
    std::string envName;
    std::string eventsPath;
    std::string timelinePath;
    bool timeline = false;
    std::uint64_t epochAccesses = 0;   ///< 0 = auto (measure/32)
    bool summary = false;
    unsigned mcCores = 1;
    unsigned mcTenants = 1;
    std::uint64_t seed = 7;
    std::uint64_t accesses = 0;
    std::size_t capacity = obs::TraceSink::defaultCapacity;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
            specName = argv[++i];
        } else if (std::strcmp(argv[i], "--env") == 0 && i + 1 < argc) {
            envName = argv[++i];
        } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
            eventsPath = argv[++i];
        } else if (std::strcmp(argv[i], "--timeline") == 0) {
            timeline = true;
        } else if (std::strncmp(argv[i], "--timeline=", 11) == 0) {
            timeline = true;
            epochAccesses = std::strtoull(argv[i] + 11, nullptr, 0);
        } else if (std::strcmp(argv[i], "--timeline-out") == 0 &&
                   i + 1 < argc) {
            timeline = true;
            timelinePath = argv[++i];
        } else if (std::strcmp(argv[i], "--summary") == 0) {
            summary = true;
        } else if (std::strcmp(argv[i], "--cores") == 0 && i + 1 < argc) {
            mcCores = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--tenants") == 0 &&
                   i + 1 < argc) {
            mcTenants = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--accesses") == 0 &&
                   i + 1 < argc) {
            accesses = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--capacity") == 0 &&
                   i + 1 < argc) {
            capacity = std::strtoull(argv[++i], nullptr, 0);
        } else {
            return usage(argv[0]);
        }
    }
    if (specName.empty() || envName.empty())
        return usage(argv[0]);
    if (eventsPath.empty() && !summary)
        summary = true;   // asking for nothing means "tell me about it"

    const auto spec = specByName(specName);
    if (!spec) {
        std::fprintf(stderr, "run_inspect: unknown workload '%s'\n",
                     specName.c_str());
        return 2;
    }
    const std::vector<EnvPreset> presets = envPresets();
    const EnvPreset *preset = nullptr;
    for (const EnvPreset &candidate : presets) {
        if (envName == candidate.name)
            preset = &candidate;
    }
    if (!preset) {
        std::fprintf(stderr, "run_inspect: unknown environment '%s'\n",
                     envName.c_str());
        return 2;
    }
    const EnvPreset &chosen = *preset;

    const bool multicore = mcCores > 1 || mcTenants > 1;
    if (mcCores == 0 || mcTenants == 0) {
        std::fprintf(stderr,
                     "run_inspect: --cores/--tenants must be >= 1\n");
        return 2;
    }

    RunConfig run = defaultRunConfig(chosen.colocation, seed);
    if (accesses != 0)
        run.measureAccesses = accesses;

    obs::TraceSink sink(capacity);
    sink.setEnabled(true);
    // Default epoch length: 32 epochs over the measure phase (summed
    // across tenants in multi-core mode) — enough resolution for drift
    // curves without drowning the trace viewer.
    if (timeline && epochAccesses == 0)
        epochAccesses = std::max<std::uint64_t>(
            run.measureAccesses * mcTenants / 32, 1);
    obs::Timeline epochs(epochAccesses);
    epochs.setEnabled(true);

    // One tenant's OS state + stream (multi-core mode; tenants must
    // outlive the simulator's run).
    struct Tenant
    {
        std::unique_ptr<System> system;
        std::unique_ptr<Workload> workload;
    };

    RunStats stats;
    mc::McResult mcResult;
    if (multicore) {
        // N identical tenant processes of --spec on M cores under the
        // deterministic mc scheduler (each tenant still gets its own
        // derived stream seed; see mc/multicore.cc).
        mc::McConfig mcConfig;
        mcConfig.cores = mcCores;
        mc::MultiCoreSimulator sim(mcConfig, chosen.machine);
        std::vector<Tenant> tenants;
        tenants.reserve(mcTenants);
        const double setupStart = obs::wallSeconds();
        for (unsigned t = 0; t < mcTenants; ++t) {
            Tenant tenant;
            tenant.system = std::make_unique<System>(
                makeSystemConfig(*spec, chosen.env));
            tenant.workload = makeWorkload(*spec);
            tenant.workload->setup(*tenant.system);
            tenants.push_back(std::move(tenant));
            sim.addTenant(*tenants.back().system,
                          *tenants.back().workload);
        }
        const double setupSec = obs::wallSeconds() - setupStart;
        sim.attachTraceSink(&sink);
        if (timeline)
            sim.attachTimeline(&epochs);
        mcResult = sim.run(run);
        stats = mcResult.aggregate;
        stats.profile.envSetupSec = setupSec;
    } else {
        Environment environment(*spec, chosen.env);
        stats = environment.run(chosen.machine, run, &sink,
                                timeline ? &epochs : nullptr);
    }

    if (!eventsPath.empty()) {
        sink.writeChromeJson(eventsPath, timeline
                                             ? epochs.chromeCounterEvents()
                                             : std::string());
        std::printf("%s: %llu events (%llu dropped)%s\n",
                    eventsPath.c_str(),
                    static_cast<unsigned long long>(sink.emitted()),
                    static_cast<unsigned long long>(sink.dropped()),
                    timeline ? " + timeline counter tracks" : "");
    }
    if (timeline && !timelinePath.empty()) {
        const bool csv = timelinePath.size() > 4 &&
                         timelinePath.compare(timelinePath.size() - 4, 4,
                                              ".csv") == 0;
        const Status status = csv ? epochs.writeCsv(timelinePath)
                                  : epochs.writeJsonl(timelinePath);
        if (status.ok()) {
            std::printf("%s: %zu epochs (every %llu accesses)\n",
                        timelinePath.c_str(), epochs.epochCount(),
                        static_cast<unsigned long long>(epochAccesses));
        } else {
            // Recoverable by design: the run's results are already in
            // hand; a failed artifact write must not turn into exit(1).
            std::fprintf(stderr, "run_inspect: timeline write failed: %s\n",
                         status.toString().c_str());
        }
    }
    if (summary) {
        std::printf("%s @ %s: %llu accesses, %llu walks, "
                    "avg walk %.1f cycles\n",
                    specName.c_str(), chosen.name,
                    static_cast<unsigned long long>(stats.accesses),
                    static_cast<unsigned long long>(
                        stats.walkLatency.count()),
                    stats.avgWalkLatency());
        std::printf("walk latency  p50 %llu  p90 %llu  p99 %llu  "
                    "p99.9 %llu cycles\n",
                    static_cast<unsigned long long>(stats.walkHist.p50()),
                    static_cast<unsigned long long>(stats.walkHist.p90()),
                    static_cast<unsigned long long>(stats.walkHist.p99()),
                    static_cast<unsigned long long>(stats.walkHist.p999()));
        std::printf("data latency  p50 %llu  p99 %llu cycles\n",
                    static_cast<unsigned long long>(stats.dataHist.p50()),
                    static_cast<unsigned long long>(stats.dataHist.p99()));
        // The mc scheduler interleaves warmup with measure, so its
        // measure time includes warmup.
        const std::string warmup =
            multicore ? std::string("(in measure)")
                      : strprintf("%.2fs", stats.profile.warmupSec);
        std::printf("self-profile  setup %.2fs  warmup %s  "
                    "measure %.2fs  %.0f acc/s  peak RSS %.1f MiB\n",
                    stats.profile.envSetupSec, warmup.c_str(),
                    stats.profile.measureSec, stats.profile.accessesPerSec,
                    static_cast<double>(stats.profile.peakRssBytes) /
                        (1024.0 * 1024.0));
        if (multicore) {
            std::printf("mc: %u cores x %u tenants, %llu slots, "
                        "max core cycle %llu\n",
                        mcCores, mcTenants,
                        static_cast<unsigned long long>(mcResult.slots),
                        static_cast<unsigned long long>(
                            mcResult.maxCoreCycle));
            for (unsigned t = 0; t < mcTenants; ++t) {
                const RunStats &ts = mcResult.tenants[t];
                const mc::TenantStats &tm = mcResult.tenantMc[t];
                std::printf(
                    "  tenant %-3u %llu accesses  avg walk %6.1f  "
                    "p99 %5llu  shootdowns %llu  ipisSent %llu  "
                    "ipiCycles %llu\n",
                    t, static_cast<unsigned long long>(ts.accesses),
                    ts.avgWalkLatency(),
                    static_cast<unsigned long long>(ts.walkHist.p99()),
                    static_cast<unsigned long long>(tm.shootdowns),
                    static_cast<unsigned long long>(tm.ipisSent),
                    static_cast<unsigned long long>(
                        tm.ipiSendWaitCycles + tm.ipiRemoteCycles));
            }
            for (unsigned c = 0; c < mcCores; ++c) {
                const mc::CoreStats &cs = mcResult.coreMc[c];
                std::printf("  core %-5u switches %-6llu "
                            "ipisReceived %-6llu interruptCycles %llu\n",
                            c,
                            static_cast<unsigned long long>(cs.switches),
                            static_cast<unsigned long long>(
                                cs.ipisReceived),
                            static_cast<unsigned long long>(
                                cs.ipiInterruptCycles));
            }
        }
        std::fputs(sink.summary().c_str(), stdout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Trace-loading and spec-parsing errors are recoverable
    // StatusErrors in the library; a CLI turns them back into the
    // classic exit(1) UX.
    try {
        return run(argc, argv);
    } catch (const StatusError &error) {
        std::fprintf(stderr, "run_inspect: %s\n", error.what());
        return 1;
    }
}
