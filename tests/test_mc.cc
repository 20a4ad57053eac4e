/**
 * @file
 * Multi-core machine model (src/mc): serial bit-identity on the
 * degenerate 1-core/1-tenant shape, scheduler determinism (including
 * across SweepRunner thread counts), the full-range-shootdown vs
 * Machine::flush differential, per-tenant/aggregate merge exactness,
 * and initiator attribution of IPI shootdown cost.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "golden_scenarios.hh"
#include "common/logging.hh"
#include "exp/sweep.hh"
#include "mc/multicore.hh"
#include "obs/timeline.hh"
#include "obs/trace_sink.hh"
#include "sim/environment.hh"
#include "workloads/dynamic.hh"
#include "workloads/synthetic.hh"

using namespace asap;

namespace
{

/** One tenant's OS state + stream, built fresh and deterministically
 *  (bypassing Environment, like the golden scenarios). */
struct TenantHarness
{
    std::unique_ptr<System> system;
    std::unique_ptr<Workload> workload;
};

TenantHarness
makeTenant(const WorkloadSpec &spec, const EnvironmentOptions &env)
{
    TenantHarness tenant;
    tenant.system = std::make_unique<System>(makeSystemConfig(spec, env));
    tenant.workload = makeWorkload(spec);
    tenant.workload->setup(*tenant.system);
    return tenant;
}

/** Run a golden scenario through the mc model, 1 core / 1 tenant,
 *  under @p run. */
mc::McResult
runScenarioMc(const golden::Scenario &scenario, std::uint64_t quantum,
              const RunConfig &run)
{
    const WorkloadSpec spec = golden::goldenSpec();
    TenantHarness tenant = makeTenant(spec, scenario.env);
    mc::McConfig mcConfig;
    mcConfig.quantum = quantum;
    mc::MultiCoreSimulator sim(mcConfig, scenario.machine);
    sim.addTenant(*tenant.system, *tenant.workload);
    return sim.run(run);
}

/** ... under the scenario's golden RunConfig. */
mc::McResult
runScenarioMc(const golden::Scenario &scenario, std::uint64_t quantum)
{
    return runScenarioMc(scenario, quantum,
                         golden::goldenRunConfig(scenario.colocation));
}

/** How many core-shared mem/TLB counters lead a serial or aggregate
 *  counter list. */
std::size_t
memTlbCounterCount(const MachineConfig &machine)
{
    Counters counters;
    Machine::appendMemTlbCounters(counters, MemoryHierarchy(machine.mem),
                                  TlbHierarchy(machine.tlb));
    return counters.size();
}

/** The mc.* attribution entries that end a tenant's counter list. */
constexpr std::size_t tenantMcCounterCount = 5;

} // namespace

// ---------------------------------------------------------------------------
// 1-core / 1-tenant bit-identity with the serial Simulator
// ---------------------------------------------------------------------------

TEST(McSerialIdentity, GoldenScenariosBitIdentical)
{
    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        SCOPED_TRACE(scenario.name);
        const RunStats serial = golden::runScenario(scenario);
        const mc::McResult result = runScenarioMc(scenario, 8192);
        expectSameStats(serial, result.aggregate);

        // The per-tenant view of a 1-tenant run is the aggregate,
        // except that by design a tenant's counters omit the
        // core-shared cache/TLB prefix and add its mc.* attribution.
        ASSERT_EQ(result.tenants.size(), 1u);
        const mc::TenantStats &mcStats = result.tenantMc[0];
        RunStats tenant = serial;
        tenant.counters.erase(
            tenant.counters.begin(),
            tenant.counters.begin() + memTlbCounterCount(scenario.machine));
        tenant.counters.insert(
            tenant.counters.end(),
            {{"mc.shootdowns", mcStats.shootdowns},
             {"mc.ipisSent", mcStats.ipisSent},
             {"mc.ipiSendWaitCycles", mcStats.ipiSendWaitCycles},
             {"mc.ipiRemoteCycles", mcStats.ipiRemoteCycles},
             {"mc.switchInCycles", mcStats.switchInCycles}});
        expectSameStats(tenant, result.tenants[0]);

        // The ideal-TLB path (Table 6) at an odd quantum, so quanta
        // straddle the warmup/measure boundary on that path too.
        RunConfig perfect = golden::goldenRunConfig(scenario.colocation);
        perfect.perfectTlb = true;
        const RunStats serialPerfect =
            golden::runScenario(scenario, perfect);
        const mc::McResult perfectResult =
            runScenarioMc(scenario, 123, perfect);
        expectSameStats(serialPerfect, perfectResult.aggregate);
    }
}

TEST(McSerialIdentity, QuantumSizeIsStatsNeutral)
{
    // Batch/quantum boundaries carry no per-access state, so any
    // quantum must reproduce the serial run bit-for-bit (an awkward
    // prime crosses the warmup/measure boundary mid-quantum).
    const golden::Scenario native = golden::goldenScenarios().front();
    const RunStats serial = golden::runScenario(native);
    const mc::McResult odd = runScenarioMc(native, 123);
    expectSameStats(serial, odd.aggregate);
}

TEST(McSerialIdentity, DynamicRunBitIdentical)
{
    // The shootdown path differs structurally (ShootdownTarget proxy
    // vs direct Machine), so pin a churn-heavy dynamic run too.
    const WorkloadSpec spec =
        withDynamics(golden::goldenSpec(), "tenants", 1.0, 3'000);
    const RunConfig run = golden::goldenRunConfig(false);

    TenantHarness serialTenant = makeTenant(spec, {});
    ASSERT_NE(serialTenant.workload->events(), nullptr);
    Machine machine(*serialTenant.system, MachineConfig{});
    Simulator simulator(*serialTenant.system, machine,
                        *serialTenant.workload);
    const RunStats serial = simulator.run(run);
    EXPECT_GT(serial.dyn.events, 0u);

    TenantHarness mcTenant = makeTenant(spec, {});
    mc::MultiCoreSimulator sim(mc::McConfig{}, MachineConfig{});
    sim.addTenant(*mcTenant.system, *mcTenant.workload);
    const mc::McResult result = sim.run(run);

    expectSameStats(serial, result.aggregate);
}

// ---------------------------------------------------------------------------
// Scheduler determinism
// ---------------------------------------------------------------------------

namespace
{

mc::McResult
runMulti(unsigned cores, unsigned tenantCount, bool pcid,
         const WorkloadSpec &spec, const RunConfig &run)
{
    mc::McConfig mcConfig;
    mcConfig.cores = cores;
    mcConfig.pcid = pcid;
    mcConfig.quantum = 2048;
    mc::MultiCoreSimulator sim(mcConfig, MachineConfig{});
    std::vector<TenantHarness> tenants;
    for (unsigned t = 0; t < tenantCount; ++t) {
        tenants.push_back(makeTenant(spec, {}));
        sim.addTenant(*tenants.back().system,
                      *tenants.back().workload);
    }
    return sim.run(run);
}

} // namespace

TEST(McScheduler, DeterministicAcrossRepeatedRuns)
{
    const WorkloadSpec spec =
        withDynamics(golden::goldenSpec(), "tenants", 1.0, 3'000);
    RunConfig run = golden::goldenRunConfig(false);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;

    const mc::McResult a = runMulti(2, 3, true, spec, run);
    const mc::McResult b = runMulti(2, 3, true, spec, run);

    expectSameStats(a.aggregate, b.aggregate);
    EXPECT_EQ(a.slots, b.slots);
    EXPECT_EQ(a.maxCoreCycle, b.maxCoreCycle);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
        expectSameStats(a.tenants[t], b.tenants[t]);
        EXPECT_EQ(a.tenantMc[t].shootdowns, b.tenantMc[t].shootdowns);
        EXPECT_EQ(a.tenantMc[t].ipisSent, b.tenantMc[t].ipisSent);
        EXPECT_EQ(a.tenantMc[t].ipiSendWaitCycles,
                  b.tenantMc[t].ipiSendWaitCycles);
        EXPECT_EQ(a.tenantMc[t].ipiRemoteCycles,
                  b.tenantMc[t].ipiRemoteCycles);
    }
    for (std::size_t c = 0; c < a.coreMc.size(); ++c) {
        EXPECT_EQ(a.coreMc[c].switches, b.coreMc[c].switches);
        EXPECT_EQ(a.coreMc[c].ipisReceived, b.coreMc[c].ipisReceived);
    }
}

TEST(McScheduler, SweepCsvIdenticalAcrossJobCounts)
{
    // The sweep layer runs mc probes like any other probe cell;
    // thread count must not leak into results (the ASAP_JOBS
    // invariant). Two tenant-count rows, mc run inside the probe.
    const auto makeSweep = [] {
        exp::SweepSpec sweep("mc_determinism");
        for (const unsigned tenantCount : {2u, 3u}) {
            WorkloadSpec spec = golden::goldenSpec();
            spec.name = strprintf("mc_t%u", tenantCount);
            sweep.addProbe(
                spec, {}, spec.name, "mc",
                [tenantCount](Environment &, exp::CellResult &cell) {
                    const WorkloadSpec tenantSpec = golden::goldenSpec();
                    RunConfig run = golden::goldenRunConfig(false);
                    run.warmupAccesses = 1'000;
                    run.measureAccesses = 4'000;
                    mc::McConfig mcConfig;
                    mcConfig.cores = 2;
                    mcConfig.quantum = 1024;
                    mc::MultiCoreSimulator sim(mcConfig,
                                               MachineConfig{});
                    std::vector<TenantHarness> tenants;
                    for (unsigned t = 0; t < tenantCount; ++t) {
                        tenants.push_back(makeTenant(tenantSpec, {}));
                        sim.addTenant(*tenants.back().system,
                                      *tenants.back().workload);
                    }
                    const mc::McResult result = sim.run(run);
                    cell.extra["aggAccesses"] = static_cast<double>(
                        result.aggregate.accesses);
                    cell.extra["aggWalkP99"] = static_cast<double>(
                        result.aggregate.walkHist.p99());
                    cell.extra["slots"] =
                        static_cast<double>(result.slots);
                    cell.extra["maxCoreCycle"] =
                        static_cast<double>(result.maxCoreCycle);
                });
        }
        return sweep;
    };

    const exp::ResultSet serial =
        exp::SweepRunner(1).run(makeSweep());
    const exp::ResultSet parallel =
        exp::SweepRunner(4).run(makeSweep());
    EXPECT_EQ(serial.toCsv(), parallel.toCsv());
    EXPECT_GT(serial.extra("mc_t2", "mc", "aggAccesses"), 0.0);
}

// ---------------------------------------------------------------------------
// Full-range shootdown vs Machine::flush differential
// ---------------------------------------------------------------------------

TEST(McShootdown, FullRangeShootdownEqualsFlush)
{
    struct Shape
    {
        unsigned cores, tenants;
        bool pcid;
        std::uint64_t seed;
    };
    const std::vector<Shape> shapes = {
        {2, 2, true, 7}, {3, 3, true, 11}, {4, 2, true, 13},
        {2, 2, false, 17},
    };
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(strprintf("cores=%u tenants=%u pcid=%d seed=%lu",
                               shape.cores, shape.tenants,
                               shape.pcid ? 1 : 0, shape.seed));
        const WorkloadSpec spec = golden::goldenSpec();
        RunConfig run = golden::goldenRunConfig(false);
        run.warmupAccesses = 2'000;
        run.measureAccesses = 6'000;
        run.seed = shape.seed;

        mc::McConfig mcConfig;
        mcConfig.cores = shape.cores;
        mcConfig.pcid = shape.pcid;
        mcConfig.quantum = 1024;
        mc::MultiCoreSimulator sim(mcConfig, MachineConfig{});
        std::vector<TenantHarness> tenants;
        for (unsigned t = 0; t < shape.tenants; ++t) {
            tenants.push_back(makeTenant(spec, {}));
            sim.addTenant(*tenants.back().system,
                          *tenants.back().workload);
        }
        sim.run(run);

        // Pre-state: resident entries and lifetime lookup counters.
        std::uint64_t preTlbValid = 0, prePwcValid = 0;
        std::vector<std::uint64_t> preLookups;
        for (unsigned c = 0; c < shape.cores; ++c) {
            preTlbValid += sim.coreTlb(c).l1ValidEntries() +
                           sim.coreTlb(c).l2ValidEntries();
            preLookups.push_back(sim.coreTlb(c).lookups());
            for (unsigned t = 0; t < shape.tenants; ++t)
                prePwcValid +=
                    sim.machineOf(t, c).appPwc().validEntries();
        }
        EXPECT_GT(preTlbValid, 0u);

        Machine::InvalidateCounts total;
        for (unsigned t = 0; t < shape.tenants; ++t) {
            const Machine::InvalidateCounts counts =
                sim.shootdownAll(t);
            total.tlb += counts.tlb;
            total.pwc += counts.pwc;
        }

        // Machine::flush post-state: everything dropped, counters
        // kept. The drop counts must account for every resident entry
        // (PCID presence masks are exact supersets; without PCID,
        // stale PWC images on non-present cores are unreachable and
        // may legitimately survive).
        EXPECT_EQ(total.tlb, preTlbValid);
        if (shape.pcid)
            EXPECT_EQ(total.pwc, prePwcValid);
        else
            EXPECT_LE(total.pwc, prePwcValid);
        for (unsigned c = 0; c < shape.cores; ++c) {
            EXPECT_EQ(sim.coreTlb(c).l1ValidEntries(), 0u);
            EXPECT_EQ(sim.coreTlb(c).l2ValidEntries(), 0u);
            EXPECT_EQ(sim.coreTlb(c).lookups(), preLookups[c]);
            if (shape.pcid) {
                for (unsigned t = 0; t < shape.tenants; ++t) {
                    EXPECT_EQ(
                        sim.machineOf(t, c).appPwc().validEntries(),
                        0u);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-tenant stats merge exactly into the aggregate
// ---------------------------------------------------------------------------

TEST(McStats, TenantStatsSumToAggregate)
{
    const WorkloadSpec spec =
        withDynamics(golden::goldenSpec(), "tenants", 1.0, 3'000);
    RunConfig run = golden::goldenRunConfig(false);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;

    const mc::McResult result = runMulti(2, 3, true, spec, run);

    // Every field but counters merges exactly; the tenants' counter
    // lists, without their mc.* tails, merge into the aggregate's
    // address-space slice, which follows the core-shared mem/TLB
    // prefix.
    RunStats merged;
    Counters spaces;
    for (RunStats tenant : result.tenants) {
        ASSERT_GT(tenant.counters.size(), tenantMcCounterCount);
        const auto tail = tenant.counters.end() - tenantMcCounterCount;
        EXPECT_EQ(tail->first, "mc.shootdowns");
        mergeCounters(spaces, Counters(tenant.counters.begin(), tail));
        tenant.counters.clear();
        merged.merge(tenant);
    }
    const Counters &aggCounters = result.aggregate.counters;
    const std::size_t memTlb = memTlbCounterCount(MachineConfig{});
    ASSERT_GT(aggCounters.size(), memTlb + spaces.size());
    const auto slice = aggCounters.begin() + memTlb;
    EXPECT_EQ(Counters(slice, slice + spaces.size()), spaces);
    RunStats agg = result.aggregate;
    agg.counters.clear();
    expectSameStats(merged, agg);

    // After the slice, the aggregate carries the mc.* telemetry
    // (multi-tenant shape).
    bool sawIpis = false;
    for (auto it = slice + spaces.size(); it != aggCounters.end(); ++it) {
        const auto &[name, value] = *it;
        EXPECT_EQ(name.rfind("mc.", 0), 0u) << name;
        if (name == "mc.ipisSent") {
            sawIpis = true;
            std::uint64_t sum = 0;
            for (const mc::TenantStats &t : result.tenantMc)
                sum += t.ipisSent;
            EXPECT_EQ(value, sum);
        }
    }
    EXPECT_TRUE(sawIpis);
}

// ---------------------------------------------------------------------------
// IPI cost: initiator attribution
// ---------------------------------------------------------------------------

TEST(McIpi, ShootdownCostLandsOnInitiatingTenant)
{
    // Tenant 0 churns (munmaps/madvise -> shootdowns); tenant 1 is a
    // static co-tenant. With 2 cores and rotation both tenants visit
    // both cores, so tenant 0's shootdowns must raise remote IPIs —
    // and every IPI cycle must be attributed to tenant 0, none to the
    // victim.
    const WorkloadSpec churny =
        withDynamics(golden::goldenSpec(), "tenants", 1.0, 2'000);
    const WorkloadSpec quiet = golden::goldenSpec();
    RunConfig run = golden::goldenRunConfig(false);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 10'000;

    mc::McConfig mcConfig;
    mcConfig.cores = 2;
    mcConfig.quantum = 1024;
    mc::MultiCoreSimulator sim(mcConfig, MachineConfig{});
    TenantHarness t0 = makeTenant(churny, {});
    TenantHarness t1 = makeTenant(quiet, {});
    obs::TraceSink sink(1u << 16);
    sink.setEnabled(true);
    sim.addTenant(*t0.system, *t0.workload);
    sim.addTenant(*t1.system, *t1.workload);
    sim.attachTraceSink(&sink);
    const mc::McResult result = sim.run(run);

    ASSERT_EQ(result.tenantMc.size(), 2u);
    EXPECT_GT(result.tenantMc[0].shootdowns, 0u);
    EXPECT_GT(result.tenantMc[0].ipisSent, 0u);
    EXPECT_GT(result.tenantMc[0].ipiSendWaitCycles, 0u);
    EXPECT_GT(result.tenantMc[0].ipiRemoteCycles, 0u);
    // The victim initiated nothing and is charged nothing.
    EXPECT_EQ(result.tenantMc[1].shootdowns, 0u);
    EXPECT_EQ(result.tenantMc[1].ipisSent, 0u);
    EXPECT_EQ(result.tenantMc[1].ipiSendWaitCycles, 0u);
    EXPECT_EQ(result.tenantMc[1].ipiRemoteCycles, 0u);

    // Remote interrupt time appears on core clocks and as Ipi trace
    // events, consistent with the attribution totals.
    std::uint64_t received = 0;
    Cycles interruptCycles = 0;
    for (const mc::CoreStats &core : result.coreMc) {
        received += core.ipisReceived;
        interruptCycles += core.ipiInterruptCycles;
    }
    EXPECT_EQ(received, result.tenantMc[0].ipisSent);
    EXPECT_EQ(interruptCycles, result.tenantMc[0].ipiRemoteCycles);
    EXPECT_EQ(sink.countOf(obs::EventKind::Ipi), received);
}

// ---------------------------------------------------------------------------
// Timeline integration (per-core gauges, slot-boundary epochs)
// ---------------------------------------------------------------------------

TEST(McTimeline, PerCoreGaugesAndDeltaSumIdentity)
{
    const WorkloadSpec spec = golden::goldenSpec();
    RunConfig run = golden::goldenRunConfig(false);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;

    mc::McConfig mcConfig;
    mcConfig.cores = 2;
    mcConfig.quantum = 1024;
    mc::MultiCoreSimulator sim(mcConfig, MachineConfig{});
    std::vector<TenantHarness> tenants;
    for (unsigned t = 0; t < 2; ++t) {
        tenants.push_back(makeTenant(spec, {}));
        sim.addTenant(*tenants.back().system,
                      *tenants.back().workload);
    }
    obs::Timeline timeline(4'000);
    timeline.setEnabled(true);
    sim.attachTimeline(&timeline);
    const mc::McResult result = sim.run(run);

    ASSERT_GE(timeline.epochCount(), 2u);
    // Per-core gauge tracks exist for both cores.
    bool core0 = false, core1 = false;
    for (const std::string &name : timeline.gaugeNames()) {
        if (name == "core0.tlb.l1Valid")
            core0 = true;
        if (name == "core1.tlb.l1Valid")
            core1 = true;
    }
    EXPECT_TRUE(core0);
    EXPECT_TRUE(core1);

    // Delta-sum identity: the final boundary's cumulative counters are
    // the aggregate's counter snapshot, bit for bit.
    const auto &names = timeline.counterNames();
    const auto &last = timeline.lastCounters();
    ASSERT_EQ(names.size(), result.aggregate.counters.size());
    ASSERT_EQ(last.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(names[i], result.aggregate.counters[i].first);
        EXPECT_EQ(last[i], result.aggregate.counters[i].second)
            << names[i];
    }
}
