/**
 * @file
 * Fixed-seed golden scenarios shared by the refactor-safety tests
 * (tests/test_sim.cc, suite Golden) and the literal generator
 * (examples/golden_dump.cpp).
 *
 * The scenarios pin the complete observable behaviour of the simulator
 * core — TLB hit/miss counts, walk-latency accumulators, per-level
 * serving distributions, cycle totals and ASAP engine counters — for
 * one small workload across the paper's structurally distinct
 * configurations. Hot-path refactors must reproduce every value
 * bit-identically; regenerate the literals with golden_dump only for
 * *intentional* model changes.
 *
 * Scenario construction deliberately bypasses Environment so that
 * ASAP_QUICK scaling cannot perturb the pinned workload.
 */

#ifndef ASAP_TESTS_GOLDEN_SCENARIOS_HH
#define ASAP_TESTS_GOLDEN_SCENARIOS_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/environment.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/dynamic.hh"
#include "workloads/synthetic.hh"

// examples/golden_dump includes this header without linking gtest.
#if __has_include(<gtest/gtest.h>)
#include <gtest/gtest.h>

namespace asap
{

/** Every RunStats field of @p a and @p b is equal; a failure names the
 *  first field that is not (diff()). */
inline void
expectSameStats(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(diff(a, b), "");
}

} // namespace asap
#endif

namespace asap::golden
{

/** The pinned workload: small enough to run in milliseconds, big enough
 *  to exercise TLB misses, walks, faults-at-warmup and prefetches. */
inline WorkloadSpec
goldenSpec()
{
    WorkloadSpec spec;
    spec.name = "golden";
    spec.paperGb = 1.0;
    spec.residentPages = 20'000;
    spec.dataVmas = 2;
    spec.smallVmas = 4;
    spec.cyclesPerAccess = 3;
    spec.windowFraction = 0.6;
    spec.windowPages = 2'000;
    spec.nearFraction = 0.1;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.5;
    spec.machineMemBytes = 1_GiB;
    spec.guestMemBytes = 256_MiB;
    return spec;
}

struct Scenario
{
    std::string name;
    EnvironmentOptions env;
    MachineConfig machine;
    bool colocation = false;
};

/** Native / virtualized / clustered / hugepage / colocation coverage. */
inline std::vector<Scenario>
goldenScenarios()
{
    std::vector<Scenario> scenarios;

    Scenario native;
    native.name = "native";
    scenarios.push_back(native);

    Scenario nativeAsap;
    nativeAsap.name = "native_asap";
    nativeAsap.env.asapPlacement = true;
    nativeAsap.machine = makeMachineConfig(AsapConfig::p1p2());
    scenarios.push_back(nativeAsap);

    Scenario virt;
    virt.name = "virt_2d";
    virt.env.virtualized = true;
    scenarios.push_back(virt);

    Scenario hugepage;
    hugepage.name = "virt_hugepage_asap";
    hugepage.env.virtualized = true;
    hugepage.env.hostHugePages = true;
    hugepage.env.asapPlacement = true;
    hugepage.machine = makeMachineConfig(AsapConfig::p1p2(),
                                         AsapConfig::p2());
    scenarios.push_back(hugepage);

    Scenario clustered;
    clustered.name = "clustered_l2";
    clustered.machine.tlb.clusteredL2 = true;
    scenarios.push_back(clustered);

    Scenario coloc;
    coloc.name = "coloc_asap";
    coloc.env.asapPlacement = true;
    coloc.machine = makeMachineConfig(AsapConfig::p1p2());
    coloc.colocation = true;
    scenarios.push_back(coloc);

    return scenarios;
}

inline RunConfig
goldenRunConfig(bool colocation)
{
    RunConfig run;
    run.warmupAccesses = 4'000;
    run.measureAccesses = 16'000;
    run.colocation = colocation;
    run.corunnerPerAccess = 3;
    run.seed = 7;
    return run;
}

/** Run one scenario from a fresh System (no ASAP_QUICK interference)
 *  under @p run, on @p spec. */
inline RunStats
runScenario(const Scenario &scenario, const RunConfig &run,
            const WorkloadSpec &spec = goldenSpec())
{
    System system(makeSystemConfig(spec, scenario.env));
    const std::unique_ptr<Workload> workload = makeWorkload(spec);
    workload->setup(system);
    Machine machine(system, scenario.machine);
    Simulator simulator(system, machine, *workload);
    return simulator.run(run);
}

/** Run one scenario under its golden RunConfig. */
inline RunStats
runScenario(const Scenario &scenario)
{
    return runScenario(scenario, goldenRunConfig(scenario.colocation));
}

/** The golden workload with tenant churn on native_asap: a short run
 *  in which dyn, levelHist, the ASAP engines and the counters are all
 *  non-zero. */
inline RunStats
runChurnScenario()
{
    return runScenario(goldenScenarios()[1], goldenRunConfig(false),
                       withDynamics(goldenSpec(), "tenants", 1.0, 3'000));
}

/** Everything the pinned golden literals hold, flattened to integers
 *  (tests/test_sim.cc and examples/golden_dump only; run-vs-run
 *  equivalence uses expectSameStats, which compares every field). */
struct Expect
{
    std::uint64_t tlbL1Hits, tlbL2Hits, tlbMisses, faults;
    std::uint64_t walkCount, walkSum, walkMin, walkMax;
    std::uint64_t totalCycles, walkCycles, dataCycles, computeCycles;
    /** levelDist[1..5].total() — walk requests per PT level. */
    std::array<std::uint64_t, 5> levelTotal;
    /** levelDist[1..5].count(Pwc) and .count(Dram). */
    std::array<std::uint64_t, 5> levelPwc;
    std::array<std::uint64_t, 5> levelDram;
    std::uint64_t appTriggers, appRangeHits, appAttempted, appIssued;
    std::uint64_t hostIssued;
};

inline Expect
flatten(const RunStats &stats)
{
    Expect e{};
    e.tlbL1Hits = stats.tlbL1Hits;
    e.tlbL2Hits = stats.tlbL2Hits;
    e.tlbMisses = stats.tlbMisses;
    e.faults = stats.faults;
    e.walkCount = stats.walkLatency.count();
    e.walkSum = stats.walkLatency.sum();
    e.walkMin = stats.walkLatency.min();
    e.walkMax = stats.walkLatency.max();
    e.totalCycles = stats.totalCycles;
    e.walkCycles = stats.walkCycles;
    e.dataCycles = stats.dataCycles;
    e.computeCycles = stats.computeCycles;
    for (unsigned level = 1; level <= 5; ++level) {
        e.levelTotal[level - 1] = stats.levelDist[level].total();
        e.levelPwc[level - 1] = stats.levelDist[level].count(MemLevel::Pwc);
        e.levelDram[level - 1] =
            stats.levelDist[level].count(MemLevel::Dram);
    }
    e.appTriggers = stats.appAsap.triggers;
    e.appRangeHits = stats.appAsap.rangeHits;
    e.appAttempted = stats.appAsap.attempted;
    e.appIssued = stats.appAsap.issued;
    e.hostIssued = stats.hostAsap.issued;
    return e;
}

} // namespace asap::golden

#endif // ASAP_TESTS_GOLDEN_SCENARIOS_HH
