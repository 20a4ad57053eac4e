/**
 * @file
 * perfbench: the repository benchmark's driver binary.
 *
 *   perfbench --workload fig8_sweep|fig10_virt|mc_churn --seed N
 *             --seconds S --trace 0|1 [--spans FILE] [--source-id ID]
 *   perfbench --self-test
 *
 * Prints provenance and one "name value unit" line per metric, then,
 * as its last line, one JSON object with the keys correct, attempted,
 * failed and metrics. --trace 0 reports the end-to-end metrics,
 * --trace 1 the per-layer ones. See README.md beside this file.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** The numbers in this repository's documents are Release builds. */
bool
optimisedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
    return false;
#endif
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fig8_sweep|fig10_virt|mc_churn "
                 "--seed N --seconds S --trace 0|1 [--spans FILE] "
                 "[--source-id ID]\n       %s --self-test\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string sourceId = "unknown";
    bool selfTest = false;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--self-test") {
            selfTest = true;
        } else if (arg == "--workload" && hasValue) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
            haveSeed = true;
        } else if (arg == "--seconds" && hasValue) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && hasValue) {
            options.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--spans" && hasValue) {
            options.spansPath = argv[++i];
        } else if (arg == "--source-id" && hasValue) {
            sourceId = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }

    std::vector<std::string> problems;
    runSelfTests(problems);
    if (selfTest) {
        for (const std::string &problem : problems)
            std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
        std::printf("self-tests %s\n",
                    problems.empty() ? "passed" : "FAILED");
        return problems.empty() ? 0 : 1;
    }
    if (!haveSeed || !(options.seconds > 0.0))
        return usage(argv[0]);

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    options.workers = std::min(4u, nproc);
    if (options.workload == "fig10_virt" || options.workload == "mc_churn")
        options.workers = 1;

    std::printf("provenance: {\"source\": %s, \"build_type\": %s, "
                "\"optimised\": %s, \"compiler\": %s, \"cpu\": %s, "
                "\"nproc\": %u, \"workers\": %u, \"seed\": %llu, "
                "\"workload\": %s, \"trace\": %d}\n",
                jsonString(sourceId).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                optimisedBuild() ? "true" : "false",
                jsonString(compiler()).c_str(),
                jsonString(cpuModel()).c_str(), nproc, options.workers,
                static_cast<unsigned long long>(options.seed),
                jsonString(options.workload).c_str(),
                options.trace ? 1 : 0);
    if (!optimisedBuild()) {
        std::fprintf(stderr, "perfbench: WARNING: %s build is not an "
                             "optimised Release build; host times are "
                             "not comparable\n", PERFBENCH_BUILD_TYPE);
    }
    std::fflush(stdout);

    Outcome out;
    if (options.workload == "fig8_sweep")
        out = runFig8Sweep(options);
    else if (options.workload == "fig10_virt")
        out = runFig10Virt(options);
    else if (options.workload == "mc_churn")
        out = runMcChurn(options);
    else
        return usage(argv[0]);
    problems.insert(problems.end(), out.problems.begin(),
                    out.problems.end());

    for (const Metric &metric : out.metrics) {
        if (!std::isfinite(metric.value))
            problems.push_back(metric.name + " is not finite");
    }
    for (const std::string &failure : out.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
    for (const std::string &problem : problems)
        std::fprintf(stderr, "perfbench: %s\n", problem.c_str());

    for (const Metric &metric : out.metrics) {
        std::printf("%-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    std::printf("%-36s %16.6f %s\n", "failed_frac",
                static_cast<double>(out.failed) /
                    std::max<std::uint64_t>(1, out.attempted),
                "fraction");

    const bool correct = problems.empty() && out.failed == 0 &&
                         out.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &metric = out.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        json += (i ? ", " : "") + jsonString(metric.name) +
                ": {\"value\": " + value +
                ", \"unit\": " + jsonString(metric.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
