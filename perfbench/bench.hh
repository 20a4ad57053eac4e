/**
 * @file
 * Shared declarations of the repository benchmark (perfbench/): the
 * result record a workload fills, the output checks behind the
 * failure count, and the traced Machine-API replay.
 *
 * The benchmark only calls the simulator's public entry points
 * (Environment, System + Workload::setup, SweepRunner::run,
 * mc::MultiCoreSimulator, Machine::translate/dataAccess/
 * corunnerAccess) and times them from outside; nothing under src/
 * knows it exists.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep.hh"
#include "mc/multicore.hh"
#include "sim/environment.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Traced runs write their spans here (CSV); empty = keep them in
     *  memory only. */
    std::string spansPath;
    /** Host threads: the sweep's worker count for fig8_sweep, 1 for
     *  the single-threaded workloads. */
    unsigned workers = 1;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    std::vector<Metric> metrics;
    /** Simulated runs (sweep cells, direct runs, mc runs) attempted and
     *  the ones that errored or failed an output check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** "what: error" of each failed run. */
    std::vector<std::string> failures;
    /** Failures of the benchmark's own checks (self-tests, setup
     *  accounting, writing the spans): these make the result
     *  incorrect without being a failed simulated run. */
    std::vector<std::string> problems;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /** Count one simulated run, failed when @p error is non-empty. */
    void record(const std::string &what, const std::string &error);
};

/** Workload seeds: the benchmark seed generates every input the
 *  program receives. */
struct Seeds
{
    std::uint64_t run;   ///< RunConfig::seed (address + co-runner RNG)
    std::uint64_t env;   ///< EnvironmentOptions::seed (OS layout, churn)
};
Seeds seedsFor(std::uint64_t benchSeed);

Outcome runFig8Sweep(const Options &options);
Outcome runFig10Virt(const Options &options);
Outcome runMcChurn(const Options &options);

// -- Output checks (checks.cc) ---------------------------------------

/** Accounting identities of one RunStats; empty when they hold. */
std::string checkAccounting(const asap::RunStats &stats);

/** A multi-core result: every tenant's and the aggregate's accounting,
 *  and the per-tenant RunStats merging to the aggregate. */
std::string checkMcResult(const asap::mc::McResult &result);

/**
 * Environment setup counted once per environment group: @p groups
 * lists the cells of each group the benchmark itself declared. Every
 * cell of a group must carry the identical envSetupSec, and each group
 * its own (one Environment per group); a mismatch is reported in
 * @p problem.
 */
double distinctSetupSeconds(
    const std::vector<asap::exp::CellResult> &cells,
    const std::vector<std::vector<std::size_t>> &groups,
    std::string &problem);

/** The benchmark's self-tests; failures are appended to @p problems. */
void runSelfTests(std::vector<std::string> &problems);

// -- Helpers shared by the workloads ---------------------------------

double median(std::vector<double> values);
/** Nearest-rank percentile, @p q in [0, 1]. */
double percentile(std::vector<double> values, double q);
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
