/**
 * @file
 * The three benchmark workloads. Each runs whole repetitions of its
 * job until the time budget is spent, and reports medians over them.
 *
 *   fig8_sweep   the full-mode Figure 8 sweep through SweepRunner
 *                (exp: shared environments, worker pool, journal; the
 *                native loop; the co-runner traffic of coloc cells).
 *   fig10_virt   Figure 10a's iso columns through Environment::run on
 *                one thread (nested walks, host PWC and host ASAP;
 *                setup-heavy: guest and host page tables).
 *   mc_churn     16 churning mcf tenants (scaled 4x down) on 4 cores
 *                with P1+P2 through MultiCoreSimulator (invalidations,
 *                frees, IPIs).
 *
 * Every traced run first repeats one untraced repetition, whose
 * RunStats the traced replay must reproduce exactly.
 */

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "bench.hh"
#include "exp/result_table.hh"
#include "obs/profile.hh"
#include "trace.hh"
#include "workloads/dynamic.hh"

namespace perfbench
{

using namespace asap;
using namespace asap::exp;

namespace
{

/** Host time of one repetition of a workload's job. */
struct Rep
{
    double wallSec = 0.0;
    double setupSec = 0.0;
    double simSec = 0.0;        ///< inside the simulate calls
    std::uint64_t accesses = 0; ///< warmup + measure, all runs
};

/**
 * Run repetitions until the next one would overrun @p seconds (at
 * least one), then report the end-to-end medians.
 */
template <typename RunRep>
void
repeatAndReport(double seconds, Outcome &out, RunRep &&runRep)
{
    std::vector<double> wall, setup, macc;
    // Taken after the first repetition: what one job needs, not what
    // allocator fragmentation over repetitions adds.
    double peakRssMb = 0.0;
    const double start = nowSeconds();
    do {
        const Rep rep = runRep(wall.size());
        wall.push_back(rep.wallSec);
        setup.push_back(rep.setupSec);
        macc.push_back(rep.accesses / rep.simSec * 1e-6);
        if (wall.size() == 1)
            peakRssMb = obs::peakRssBytes() / 1048576.0;
        std::fprintf(stderr,
                     "perfbench: repetition %zu: wall %.3f s, setup "
                     "%.3f s, %.3f Macc/s\n",
                     wall.size(), rep.wallSec, rep.setupSec, macc.back());
    } while ((nowSeconds() - start) * (wall.size() + 1) / wall.size() <=
             seconds);
    out.add("wall_s", median(wall), "s");
    out.add("setup_s", median(setup), "s");
    out.add("sim_macc_s", median(macc), "Macc/s");
    out.add("peak_rss_mb", peakRssMb, "MB");
}

std::uint64_t
counterOf(const RunStats &stats, const char *name)
{
    for (const auto &[key, value] : stats.counters) {
        if (key == name)
            return value;
    }
    return 0;
}

double
ratio(double part, double whole)
{
    return whole == 0.0 ? 0.0 : part / whole;
}

/**
 * Every per-layer metric, in the order BENCHMARK.json lists them. A
 * workload fills what it exercises; the rest stay 0 ("not measured
 * here"), so every workload reports the same names.
 */
struct Layers
{
    LayerTimes host;
    double mcRunNsPerAccess = 0.0;
    std::vector<double> cellWalls;
    double busyFrac = 0.0;

    // Simulated counts, summed over every run of one repetition.
    std::uint64_t accesses = 0, tlbMisses = 0, tlbInvalidated = 0;
    std::uint64_t pwcHits = 0, pwcLookups = 0;
    std::uint64_t hostPwcHits = 0, hostPwcLookups = 0;
    std::uint64_t appIssued = 0, appAttempted = 0;
    std::uint64_t hostIssued = 0, hostAttempted = 0;
    std::uint64_t llcHits = 0, llcMisses = 0;
    std::uint64_t mshrIssued = 0, mshrDropped = 0;
    std::uint64_t pageFaults = 0, dynEvents = 0, ptNodesFreed = 0;
    std::uint64_t contextSwitches = 0, ipis = 0;
    double fragPermilleSum = 0.0;
    unsigned systems = 0;
    obs::Histogram walkHist;

    double overheadPct = 0.0;
    double asapErrPp = 0.0;

    /** One run's measure-window stats and its machine's counters. */
    void
    addRun(const RunStats &s)
    {
        accesses += s.accesses;
        tlbMisses += s.tlbMisses;
        tlbInvalidated += s.dyn.tlbInvalidated;
        dynEvents += s.dyn.events;
        ptNodesFreed += s.dyn.ptNodesFreed;
        walkHist.merge(s.walkHist);
        pwcHits += counterOf(s, "pwc.app.hits");
        pwcLookups += counterOf(s, "pwc.app.lookups");
        hostPwcHits += counterOf(s, "pwc.host.hits");
        hostPwcLookups += counterOf(s, "pwc.host.lookups");
        appIssued += s.appAsap.issued;
        appAttempted += s.appAsap.attempted;
        hostIssued += s.hostAsap.issued;
        hostAttempted += s.hostAsap.attempted;
        llcHits += counterOf(s, "llc.hits");
        llcMisses += counterOf(s, "llc.misses");
        mshrIssued += counterOf(s, "mshr.prefetchesIssued");
        mshrDropped += counterOf(s, "mshr.prefetchesDropped");
    }

    /** A System's lifetime counters, from the last run on it. */
    void
    addSystem(const RunStats &last)
    {
        pageFaults += counterOf(last, "os.pageFaults");
        fragPermilleSum += counterOf(last, "buddy.fragPermille");
        ++systems;
    }

    void
    emit(Outcome &out) const
    {
        out.add("workloads.gen_ns", host.genNsPerAddress, "ns");
        out.add("os.system_build_s", host.systemBuildSec, "s");
        out.add("os.prefault_s", host.prefaultSec, "s");
        out.add("sim.machine_build_ms", host.machineBuildMs, "ms");
        out.add("tlb.hit_ns", host.tlbHitNs, "ns");
        out.add("tlb.hit_ns_p50", host.tlbHitP50Ns, "ns");
        out.add("walk.miss_ns", host.walkMissNs, "ns");
        out.add("walk.miss_ns_p99", host.walkMissP99Ns, "ns");
        out.add("mem.data_ns", host.dataNs, "ns");
        out.add("mem.corunner_ns", host.corunnerNs, "ns");
        out.add("mc.run_ns_per_access", mcRunNsPerAccess, "ns");
        out.add("mc.add_tenant_ms", host.addTenantMs, "ms");
        out.add("exp.cell_wall_p50_s", percentile(cellWalls, 0.50), "s");
        out.add("exp.cell_wall_p75_s", percentile(cellWalls, 0.75), "s");
        out.add("exp.worker_busy_frac", busyFrac, "fraction");
        out.add("tlb.l2_mpka", 1000.0 * ratio(tlbMisses, accesses),
                "1/kacc");
        out.add("tlb.invalidated", tlbInvalidated, "count");
        out.add("walk.walks", walkHist.count(), "count");
        out.add("walk.latency_p50_cyc", walkHist.p50(), "cycles");
        out.add("walk.latency_p99_cyc", walkHist.p99(), "cycles");
        out.add("walk.pwc_hit_ratio", ratio(pwcHits, pwcLookups),
                "ratio");
        out.add("walk.host_pwc_hit_ratio",
                ratio(hostPwcHits, hostPwcLookups), "ratio");
        out.add("core.asap_issued_per_attempt",
                ratio(appIssued, appAttempted), "ratio");
        out.add("core.host_asap_issued_per_attempt",
                ratio(hostIssued, hostAttempted), "ratio");
        out.add("mem.llc_miss_ratio",
                ratio(llcMisses, llcHits + llcMisses), "ratio");
        out.add("mem.mshr_drop_ratio",
                ratio(mshrDropped, mshrIssued + mshrDropped), "ratio");
        out.add("os.page_faults", pageFaults, "count");
        out.add("os.buddy_frag_permille", ratio(fragPermilleSum, systems),
                "permille");
        out.add("dyn.events", dynEvents, "count");
        out.add("dyn.pt_nodes_freed", ptNodesFreed, "count");
        out.add("mc.context_switches", contextSwitches, "count");
        out.add("mc.ipis", ipis, "count");
        out.add("bench.trace_overhead_pct", overheadPct, "%");
        out.add("fidelity.asap_err_pp", asapErrPp, "pp");
    }
};

std::uint64_t
accessesOf(const RunConfig &run)
{
    return run.warmupAccesses + run.measureAccesses;
}

/** The three measure-window totals the replay must reproduce; also
 *  compared across repetitions (a run must be deterministic). */
std::string
sameRun(const RunStats &a, const RunStats &b)
{
    return a.walkCycles == b.walkCycles && a.dataCycles == b.dataCycles &&
                   a.tlbMisses == b.tlbMisses
               ? ""
               : "repetition differs from the first";
}

// ---------------------------------------------------------------------
// Figure workloads: fig8_sweep and fig10_virt
// ---------------------------------------------------------------------

/** A figure's cells, grouped by the environment they share as this
 *  benchmark declares them: one group per (workload, placement). */
struct Plan
{
    std::string name;
    std::vector<Cell> cells;
    /** The cells of each group. */
    std::vector<std::vector<std::size_t>> groups;

    void
    add(const WorkloadSpec &spec, const EnvironmentOptions &env,
        const MachineConfig &machine, const RunConfig &run,
        const std::string &column, unsigned group)
    {
        Cell cell;
        cell.row = spec.name + (run.colocation ? "/coloc" : "");
        cell.column = column;
        cell.spec = spec;
        cell.env = env;
        cell.machine = machine;
        cell.run = run;
        if (groups.size() <= group)
            groups.resize(group + 1);
        groups[group].push_back(cells.size());
        cells.push_back(std::move(cell));
    }

    std::string
    label(std::size_t i) const
    {
        return name + " " + cells[i].row + "/" + cells[i].column;
    }
};

/** One paper claim: the average-row reduction of @p column against
 *  Baseline, iso or coloc. */
struct Claim
{
    bool colocation;
    const char *column;
    double paperPct;
};

/**
 * Mean |ours - paper| over @p claims, as the figure binaries compute
 * ours: the mean walk latency over the suite per column, then the
 * reduction of those means.
 */
double
fidelityError(const Plan &plan, const std::vector<RunStats> &stats,
              const std::vector<Claim> &claims)
{
    double sum = 0.0;
    for (const Claim &claim : claims) {
        double baseline = 0.0, asap = 0.0;
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            const Cell &cell = plan.cells[i];
            if (cell.run.colocation != claim.colocation)
                continue;
            if (cell.column == "Baseline")
                baseline += stats[i].avgWalkLatency();
            else if (cell.column == claim.column)
                asap += stats[i].avgWalkLatency();
        }
        const double ours = reductionPct(baseline, asap);
        std::fprintf(stderr, "perfbench: %s %s reduction %.2f%% "
                             "(paper %.0f%%)\n",
                     claim.colocation ? "coloc" : "iso", claim.column,
                     ours, claim.paperPct);
        sum += std::fabs(ours - claim.paperPct);
    }
    return sum / claims.size();
}

/** One repetition of a figure: per-cell stats and host times. */
struct PlanRep
{
    Rep rep;
    std::vector<RunStats> stats;
    /** Each cell's wall time inside SweepRunner; empty for workloads
     *  that bypass exp. */
    std::vector<double> cellWalls;
};

/** Count cell @p i as a run: @p error, else its accounting, else its
 *  agreement with the first repetition. */
void
recordCell(const Plan &plan, std::size_t i, std::string error,
           const RunStats &stats, const PlanRep *first, Outcome &out)
{
    if (error.empty())
        error = checkAccounting(stats);
    if (error.empty() && first)
        error = sameRun(stats, first->stats[i]);
    out.record(plan.label(i), error);
}

/** fig8_sweep's repetition: the whole sweep through SweepRunner. */
PlanRep
runSweepRep(const Plan &plan, const SweepSpec &sweep, unsigned workers,
            const PlanRep *first, Outcome &out)
{
    PlanRep r;
    const double start = nowSeconds();
    const ResultSet results = SweepRunner(workers).run(sweep);
    r.rep.wallSec = nowSeconds() - start;

    const std::vector<CellResult> &cells = results.cells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &cell = cells[i];
        std::string error;
        if (!cell.status.ok())
            error = cell.status.toString();
        else if (!cell.measured)
            error = "cell not measured";
        recordCell(plan, i, error, cell.stats, first, out);
        // The cell's self-profile: host seconds inside warmup + measure.
        r.rep.simSec += cell.stats.profile.warmupSec +
                        cell.stats.profile.measureSec;
        r.rep.accesses += accessesOf(plan.cells[i].run);
        r.stats.push_back(cell.stats);
        r.cellWalls.push_back(cell.stats.profile.wallSec);
    }

    std::string problem;
    r.rep.setupSec = distinctSetupSeconds(cells, plan.groups, problem);
    if (!problem.empty())
        out.problems.push_back(plan.name + " setup accounting: " + problem);
    return r;
}

/** fig10_virt's repetition: Environment::run on this thread, one
 *  environment at a time. */
PlanRep
runDirectRep(const Plan &plan, const PlanRep *first, Outcome &out)
{
    PlanRep r;
    r.stats.resize(plan.cells.size());
    const double start = nowSeconds();
    for (const std::vector<std::size_t> &group : plan.groups) {
        const Cell &head = plan.cells[group.front()];
        Environment env(head.spec, head.env);
        r.rep.setupSec += env.setupSeconds();
        for (const std::size_t i : group) {
            const Cell &cell = plan.cells[i];
            const double runStart = nowSeconds();
            r.stats[i] = env.run(cell.machine, cell.run);
            r.rep.simSec += nowSeconds() - runStart;
            r.rep.accesses += accessesOf(cell.run);
            recordCell(plan, i, "", r.stats[i], first, out);
        }
    }
    r.rep.wallSec = nowSeconds() - start;
    return r;
}

/**
 * Replay every cell of @p plan twice, traced and untraced (alternating
 * which goes first), on options.workers threads, one environment group
 * at a time per thread, as the sweep schedules them. Both replays must
 * reproduce the untraced run's @p reference exactly; their loop times
 * give the tracing overhead.
 */
void
replayPlan(const Plan &plan, const std::vector<RunStats> &reference,
           const Options &options, Outcome &out, Layers &layers)
{
    const std::vector<Cell> &cells = plan.cells;
    const unsigned workers = options.workers;
    std::vector<ReplayTotals> traced(cells.size()), untraced(cells.size());
    std::vector<std::unique_ptr<SpanLog>> logs;
    for (unsigned w = 0; w < workers; ++w)
        logs.push_back(std::make_unique<SpanLog>(w));
    std::vector<std::string> errors(workers);

    std::atomic<std::uint32_t> nextGroup{0};
    const auto replayGroups = [&](unsigned w) {
        SpanLog &log = *logs[w];
        for (std::uint32_t g = nextGroup++; g < plan.groups.size();
             g = nextGroup++) {
            const std::vector<std::size_t> &members = plan.groups[g];
            const Cell &head = cells[members.front()];
            // What the Environment constructor does, span by span.
            const WorkloadSpec spec = applyQuickMode(head.spec);
            const std::uint32_t env = log.open(SpanName::Env, noSpan, g);
            std::uint32_t span = log.open(SpanName::SystemBuild, env, g);
            System system(makeSystemConfig(spec, head.env));
            log.close(span);
            span = log.open(SpanName::Prefault, env, g);
            const std::unique_ptr<Workload> workload = makeWorkload(spec);
            workload->setup(system);
            log.close(span);
            for (const std::size_t i : members) {
                const auto id = static_cast<std::uint32_t>(i);
                const auto replayUntraced = [&] {
                    untraced[i] = replayCell(system, *workload,
                                             cells[i].machine, cells[i].run,
                                             nullptr, noSpan, id);
                };
                if (i % 2 == 0)
                    replayUntraced();
                span = log.open(SpanName::Cell, env, id);
                traced[i] = replayCell(system, *workload, cells[i].machine,
                                       cells[i].run, &log, span, id);
                log.close(span);
                if (i % 2 == 1)
                    replayUntraced();
            }
            log.close(env);
        }
    };
    const auto worker = [&](unsigned w) {
        try {
            replayGroups(w);
        } catch (const std::exception &e) {
            errors[w] = e.what();
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back(worker, w);
    for (std::thread &thread : threads)
        thread.join();
    for (const std::string &error : errors) {
        if (!error.empty())
            out.problems.push_back(plan.name + " replay: " + error);
    }

    double tracedSec = 0.0, untracedSec = 0.0;
    std::uint64_t accesses = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        out.record(plan.label(i) + " traced replay",
                   compareReplay(traced[i], reference[i]));
        out.record(plan.label(i) + " untraced replay",
                   compareReplay(untraced[i], reference[i]));
        tracedSec += traced[i].loopSeconds;
        untracedSec += untraced[i].loopSeconds;
        accesses += traced[i].accesses;
    }
    std::vector<const SpanLog *> views;
    for (const auto &log : logs)
        views.push_back(log.get());
    layers.host = layerTimes(views, accesses);
    layers.overheadPct = 100.0 * (tracedSec / untracedSec - 1.0);
    if (!options.spansPath.empty() && !writeSpans(options.spansPath, views))
        out.problems.push_back("cannot write " + options.spansPath);
}

/**
 * A figure workload. Untraced: repetitions of @p runRep. Traced: one
 * untraced repetition for the simulated counts and the reference
 * stats, then the traced replay.
 */
template <typename RunRep>
Outcome
runFigure(const Plan &plan, const std::vector<Claim> &claims,
          const Options &options, RunRep &&runRep)
{
    Outcome out;
    if (!options.trace) {
        PlanRep first;
        repeatAndReport(options.seconds, out, [&](std::size_t index) {
            PlanRep r = runRep(index == 0 ? nullptr : &first, out);
            if (index == 0)
                first = r;
            return r.rep;
        });
        return out;
    }

    Layers layers;
    const PlanRep ref = runRep(nullptr, out);
    for (const RunStats &stats : ref.stats)
        layers.addRun(stats);
    for (const std::vector<std::size_t> &group : plan.groups)
        layers.addSystem(ref.stats[group.back()]);
    if (!ref.cellWalls.empty()) {
        double busySec = ref.rep.setupSec;
        for (const double wall : ref.cellWalls)
            busySec += wall;
        layers.cellWalls = ref.cellWalls;
        layers.busyFrac = busySec / (options.workers * ref.rep.wallSec);
    }
    layers.asapErrPp = fidelityError(plan, ref.stats, claims);
    replayPlan(plan, ref.stats, options, out, layers);
    layers.emit(out);
    return out;
}

// ---------------------------------------------------------------------
// mc_churn
// ---------------------------------------------------------------------

constexpr unsigned mcTenants = 16;
constexpr unsigned mcCores = 4;
/**
 * Each tenant is mcf scaled down 4x, machine memory included. At full
 * size the 16 Systems hold ~400 MB of host memory, and on a shared
 * 4-vCPU VM their host time moved by up to 39% between sets of runs.
 * Scaled, the process stays near 110 MB and one repetition takes ~2 s,
 * so a run's median is taken over ~15 repetitions.
 */
constexpr unsigned mcScale = 4;
/** Per tenant. Long enough that setup is a small share of the run. */
constexpr std::uint64_t mcWarmup = 75'000;
constexpr std::uint64_t mcMeasure = 1'175'000;

struct McRep
{
    Rep rep;
    mc::McResult result;
};

/** One mc_churn repetition; spans go to @p log when it is given. */
McRep
runMcRep(const Seeds &seeds, const RunStats *first, Outcome &out,
         SpanLog *log)
{
    RunConfig run = defaultRunConfig(false, seeds.run);
    run.warmupAccesses = mcWarmup;
    run.measureAccesses = mcMeasure;
    // 16 event bursts per run: mmap/munmap/madvise, so shootdowns and
    // frees are real.
    WorkloadSpec mcf = scaledDown(mcfSpec(), mcScale);
    mcf.machineMemBytes /= mcScale;
    const WorkloadSpec spec =
        withDynamics(mcf, "tenants", 1.0, accessesOf(run) / 16);

    const auto span = [&](SpanName name, std::uint32_t run) {
        return log ? log->open(name, noSpan, run) : noSpan;
    };
    const auto close = [&](std::uint32_t id) {
        if (log)
            log->close(id);
    };

    McRep r;
    const double start = nowSeconds();
    struct Tenant
    {
        std::unique_ptr<System> system;
        std::unique_ptr<Workload> workload;
    };
    std::vector<Tenant> tenants(mcTenants);
    mc::McConfig mcConfig;
    mcConfig.cores = mcCores;
    mc::MultiCoreSimulator sim(mcConfig,
                               makeMachineConfig(AsapConfig::p1p2()));
    for (unsigned t = 0; t < mcTenants; ++t) {
        EnvironmentOptions env;
        env.asapPlacement = true;   // P1+P2 needs ASAP-placed PTs
        env.seed = mix64(seeds.env + t);
        const double setupStart = nowSeconds();
        std::uint32_t id = span(SpanName::SystemBuild, t);
        tenants[t].system =
            std::make_unique<System>(makeSystemConfig(spec, env));
        close(id);
        id = span(SpanName::Prefault, t);
        tenants[t].workload = makeWorkload(spec);
        tenants[t].workload->setup(*tenants[t].system);
        close(id);
        id = span(SpanName::AddTenant, t);
        sim.addTenant(*tenants[t].system, *tenants[t].workload);
        close(id);
        r.rep.setupSec += nowSeconds() - setupStart;
    }
    const double runStart = nowSeconds();
    const std::uint32_t id = span(SpanName::McRun, 0);
    r.result = sim.run(run);
    close(id);
    r.rep.simSec = nowSeconds() - runStart;
    r.rep.accesses = mcTenants * accessesOf(run);
    r.rep.wallSec = nowSeconds() - start;
    std::string error = checkMcResult(r.result);
    if (error.empty() && first)
        error = sameRun(r.result.aggregate, *first);
    out.record("mc_churn", error);
    return r;
}

void
addMcCounts(const mc::McResult &result, Layers &layers)
{
    layers.addRun(result.aggregate);
    for (const RunStats &tenant : result.tenants)
        layers.addSystem(tenant);
    for (const mc::CoreStats &core : result.coreMc)
        layers.contextSwitches += core.switches;
    for (const mc::TenantStats &tenant : result.tenantMc)
        layers.ipis += tenant.ipisSent;
}

} // namespace

Outcome
runFig8Sweep(const Options &options)
{
    const Seeds seeds = seedsFor(options.seed);
    Plan plan;
    plan.name = "fig8_sweep";
    for (const WorkloadSpec &spec : standardSuite()) {
        EnvironmentOptions base;
        base.seed = seeds.env;
        EnvironmentOptions asap = base;
        asap.asapPlacement = true;
        const auto group = static_cast<unsigned>(plan.groups.size());
        for (const bool colocation : {false, true}) {
            const RunConfig run = defaultRunConfig(colocation, seeds.run);
            plan.add(spec, base, makeMachineConfig(), run, "Baseline",
                     group);
            plan.add(spec, asap, makeMachineConfig(AsapConfig::p1()), run,
                     "P1", group + 1);
            plan.add(spec, asap, makeMachineConfig(AsapConfig::p1p2()),
                     run, "P1+P2", group + 1);
        }
    }
    SweepSpec sweep("perfbench_fig8_sweep");
    for (const Cell &cell : plan.cells) {
        sweep.add(cell.spec, cell.env, cell.machine, cell.run, cell.row,
                  cell.column);
    }
    const std::vector<Claim> claims = {{false, "P1", 12.0},
                                       {false, "P1+P2", 14.0},
                                       {true, "P1", 20.0},
                                       {true, "P1+P2", 25.0}};
    return runFigure(plan, claims, options,
                     [&](const PlanRep *first, Outcome &out) {
                         return runSweepRep(plan, sweep, options.workers,
                                            first, out);
                     });
}

Outcome
runFig10Virt(const Options &options)
{
    const Seeds seeds = seedsFor(options.seed);
    const RunConfig run = defaultRunConfig(false, seeds.run);
    Plan plan;
    plan.name = "fig10_virt";
    for (const WorkloadSpec &spec : standardSuite()) {
        // The Baseline column measures buddy PT placement; the ASAP
        // columns measure the ASAP-placement environment.
        EnvironmentOptions base;
        base.virtualized = true;
        base.seed = seeds.env;
        EnvironmentOptions asap = base;
        asap.asapPlacement = true;
        const auto group = static_cast<unsigned>(plan.groups.size());
        plan.add(spec, base, makeMachineConfig(), run, "Baseline", group);
        plan.add(spec, asap,
                 makeMachineConfig(AsapConfig::p1(), AsapConfig::p1()), run,
                 "P1g+P1h", group + 1);
        plan.add(spec, asap,
                 makeMachineConfig(AsapConfig::p1p2(), AsapConfig::p1p2()),
                 run, "all-4", group + 1);
    }
    const std::vector<Claim> claims = {{false, "P1g+P1h", 35.0},
                                       {false, "all-4", 39.0}};
    return runFigure(plan, claims, options,
                     [&](const PlanRep *first, Outcome &out) {
                         return runDirectRep(plan, first, out);
                     });
}

Outcome
runMcChurn(const Options &options)
{
    Outcome out;
    const Seeds seeds = seedsFor(options.seed);
    if (!options.trace) {
        RunStats first;
        repeatAndReport(options.seconds, out, [&](std::size_t index) {
            const McRep r = runMcRep(seeds, index == 0 ? nullptr : &first,
                                     out, nullptr);
            if (index == 0)
                first = r.result.aggregate;
            return r.rep;
        });
        return out;
    }

    // Only System build, Workload::setup, addTenant and run get spans
    // here: the per-access split needs tracing inside the mc loop. The
    // first, untraced repetition is the reference the traced one must
    // equal. About 50 spans cost nothing measurable, so
    // bench.trace_overhead_pct reads 0 ("not measured").
    Layers layers;
    const McRep first = runMcRep(seeds, nullptr, out, nullptr);
    SpanLog log;
    const McRep traced =
        runMcRep(seeds, &first.result.aggregate, out, &log);
    addMcCounts(first.result, layers);
    layers.host = layerTimes({&log}, 0);
    layers.mcRunNsPerAccess =
        1e9 * traced.rep.simSec / traced.rep.accesses;
    if (!options.spansPath.empty() && !writeSpans(options.spansPath, {&log}))
        out.problems.push_back("cannot write " + options.spansPath);
    layers.emit(out);
    return out;
}

} // namespace perfbench
