/**
 * @file
 * The parallel-replay equivalence suite (src/sim/parallel_replay.hh)
 * plus the SampleStat pooled-moments merge regression tests.
 *
 * The mode's contract, pinned bit-for-bit here:
 *  - one shard == plain serial replay, across every RunStats field
 *    including histogram buckets/percentiles, dyn* counters and the
 *    registered counter snapshot;
 *  - for any shard count — including counts that do not divide the
 *    measure-access total — the merged result is independent of the
 *    worker-thread count;
 *  - generator workloads and dynamic (OS-event) traces are rejected
 *    with InvalidArgument, not silently mis-sharded.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/environment.hh"
#include "sim/parallel_replay.hh"
#include "trace/format.hh"
#include "trace/trace_file.hh"
#include "workloads/trace.hh"

#include "golden_scenarios.hh"

namespace asap
{
namespace
{

/** Measure total deliberately not divisible by 2, 4 or 7. */
constexpr std::uint64_t measureTotal = 16'001;

RunConfig
replayRunConfig()
{
    RunConfig run = golden::goldenRunConfig(false);
    run.measureAccesses = measureTotal;
    return run;
}

/** Record the golden workload once per test binary. */
const std::string &
goldenTracePath()
{
    static const std::string path = [] {
        const std::string p = "parallel_replay_golden.trc";
        const RunConfig run = replayRunConfig();
        recordTrace(golden::goldenSpec(), p, run.seed,
                    run.warmupAccesses + run.measureAccesses);
        return p;
    }();
    return path;
}

/**
 * One shard must reproduce a plain serial replay bit-for-bit: the seek
 * to the warmup boundary is positionally a no-op. Covered for two
 * structurally distinct machines (ASAP engines on; clustered L2).
 */
TEST(ParallelReplay, OneShardBitIdenticalToSerial)
{
    const WorkloadSpec spec = traceSpec(goldenTracePath());
    const RunConfig run = replayRunConfig();

    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        if (scenario.name != "native_asap" &&
            scenario.name != "clustered_l2")
            continue;
        SCOPED_TRACE(scenario.name);

        Environment env(spec, scenario.env);
        const RunStats serial = env.run(scenario.machine, run);

        ParallelReplayOptions options;
        options.shards = 1;
        options.threads = 2;
        StatusOr<RunStats> merged = runParallelReplay(
            spec, scenario.env, scenario.machine, run, options);
        ASSERT_TRUE(merged.ok()) << merged.status().toString();
        expectSameStats(*merged, serial);
    }
}

/**
 * The merged result is a deterministic function of the shard count
 * alone: thread counts (1 vs many) must not change a bit, even when
 * the shard count does not divide the measure total.
 */
TEST(ParallelReplay, ThreadCountInvariant)
{
    const WorkloadSpec spec = traceSpec(goldenTracePath());
    const RunConfig run = replayRunConfig();
    const golden::Scenario scenario = golden::goldenScenarios()[1];
    ASSERT_EQ(scenario.name, "native_asap");

    for (unsigned shards : {2u, 4u, 7u}) {
        SCOPED_TRACE(shards);
        EXPECT_NE(measureTotal % shards, 0u);

        ParallelReplayOptions serial1;
        serial1.shards = shards;
        serial1.threads = 1;
        StatusOr<RunStats> one = runParallelReplay(
            spec, scenario.env, scenario.machine, run, serial1);
        ASSERT_TRUE(one.ok()) << one.status().toString();

        ParallelReplayOptions wide;
        wide.shards = shards;
        wide.threads = 4;
        StatusOr<RunStats> many = runParallelReplay(
            spec, scenario.env, scenario.machine, run, wide);
        ASSERT_TRUE(many.ok()) << many.status().toString();

        expectSameStats(*many, *one);

        // Slices cover the measure phase exactly once.
        EXPECT_EQ(one->accesses, measureTotal);
        EXPECT_EQ(one->computeCycles,
                  measureTotal * golden::goldenSpec().cyclesPerAccess);
        EXPECT_EQ(one->tlbL1Hits + one->tlbL2Hits + one->tlbMisses,
                  measureTotal);
    }
}

/** Generators have no O(1) seek: reject, don't mis-shard. */
TEST(ParallelReplay, RejectsGeneratorWorkload)
{
    ParallelReplayOptions options;
    options.shards = 2;
    StatusOr<RunStats> result = runParallelReplay(
        golden::goldenSpec(), EnvironmentOptions{}, MachineConfig{},
        replayRunConfig(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

/** Dynamic traces' OS events depend on the whole stream prefix:
 *  sharding them is rejected up front. */
TEST(ParallelReplay, RejectsDynamicTrace)
{
    const std::string path = "parallel_replay_dynamic.trc2";
    WorkloadSpec spec = golden::goldenSpec();
    spec.dynProfile = "server";
    RecordOptions options;
    options.version = trc2Version;
    const RunConfig run = replayRunConfig();
    recordTrace(spec, path, run.seed,
                run.warmupAccesses + run.measureAccesses, options);
    {
        TraceFile trace(path);
        ASSERT_TRUE(trace.hasEventOps());
    }

    ParallelReplayOptions parallel;
    parallel.shards = 2;
    StatusOr<RunStats> result =
        runParallelReplay(traceSpec(path), EnvironmentOptions{},
                          MachineConfig{}, run, parallel);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
    std::remove(path.c_str());
}

/** Zero shards is a caller error, not a hang. */
TEST(ParallelReplay, RejectsZeroShards)
{
    ParallelReplayOptions options;
    options.shards = 0;
    StatusOr<RunStats> result = runParallelReplay(
        traceSpec(goldenTracePath()), EnvironmentOptions{},
        MachineConfig{}, replayRunConfig(), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

/**
 * SampleStat::merge must equal serial accumulation bit-for-bit for
 * ANY partition of the samples into shards — the property the
 * parallel-replay merge relies on. The second moment is exact 128-bit
 * integer arithmetic, so this holds with no tolerance.
 */
TEST(SampleStatMerge, MatchesSerialForUnequalPartitions)
{
    // Values with spread (squares overflow 32 bits) and duplicates.
    std::vector<std::uint64_t> samples;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 1000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        samples.push_back(x % 5'000'000);
    }

    SampleStat serial;
    for (std::uint64_t v : samples)
        serial.sample(v);

    for (std::size_t shards : {2u, 3u, 7u}) {
        SCOPED_TRACE(shards);
        // Deliberately unequal slices: shard k gets [k*n/N, (k+1)*n/N).
        std::vector<SampleStat> parts(shards);
        for (std::size_t k = 0; k < shards; ++k) {
            const std::size_t begin = samples.size() * k / shards;
            const std::size_t end = samples.size() * (k + 1) / shards;
            for (std::size_t i = begin; i < end; ++i)
                parts[k].sample(samples[i]);
        }

        SampleStat merged;
        for (const SampleStat &part : parts)
            merged.merge(part);
        EXPECT_EQ(merged, serial);
        EXPECT_DOUBLE_EQ(merged.variance(), serial.variance());
        EXPECT_DOUBLE_EQ(merged.stddev(), serial.stddev());

        // Associativity: ((a+b)+c) == (a+(b+c)) for three-way splits.
        if (shards == 3) {
            SampleStat left = parts[0];
            left.merge(parts[1]);
            left.merge(parts[2]);
            SampleStat right = parts[1];
            right.merge(parts[2]);
            SampleStat first = parts[0];
            first.merge(right);
            EXPECT_EQ(first, left);
        }
    }
}

/** The second moment survives the journal's u64-halves round trip. */
TEST(SampleStatMerge, RestoreRoundTripsSecondMoment)
{
    SampleStat stat;
    // Large samples push sumSquares past 64 bits.
    for (int i = 0; i < 10; ++i)
        stat.sample((std::uint64_t{1} << 33) + i);
    EXPECT_GT(stat.sumSquaresHi(), 0u);

    SampleStat restored;
    restored.restore(stat.count(), stat.sum(), stat.min(), stat.max(),
                     stat.sumSquaresHi(), stat.sumSquaresLo());
    EXPECT_EQ(restored, stat);
    EXPECT_DOUBLE_EQ(restored.variance(), stat.variance());
}

} // namespace
} // namespace asap

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    const int rc = RUN_ALL_TESTS();
    std::remove("parallel_replay_golden.trc");
    return rc;
}
