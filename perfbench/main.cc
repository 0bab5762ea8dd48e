/**
 * @file
 * sdnav_perfbench: one process, one workload per run.
 *
 *   sdnav_perfbench --workload query-hot|query-churn|offline
 *                   --seed N --seconds S --trace 0|1
 *   sdnav_perfbench --self-test
 *
 * Prints a human-readable report, then, as the last line of standard
 * output, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. Untraced runs (--trace 0) report the end-to-end
 * metrics; traced runs report the per-layer metrics, print the span
 * table and the tracing overhead, and write their spans as a Chrome
 * trace under the output directory.
 *
 * Exit codes: 0 measured (the JSON says whether it was correct),
 * 1 the run could not complete, 2 bad arguments, 3 the measurement
 * was invalid (the load generator fell behind) and no result is
 * printed.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/json.hh"
#include "common/parse.hh"
#include "spans.hh"
#include "workload.hh"

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> metrics{
        {"p50_ms", "ms"},        {"p99_ms", "ms"},
        {"sustained_qps", "1/s"}, {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},  {"sweep_s", "s"},
        {"sim_s", "s"},
    };
    return metrics;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> metrics{
        {"server.parse_us", "us"},
        {"server.reply_encode_us", "us"},
        {"server.queue_wait_ms.p50", "ms"},
        {"server.queue_wait_ms.p99", "ms"},
        {"server.acquire_hit_us", "us"},
        {"server.acquire_miss_ms", "ms"},
        {"server.cache_hit_ratio", "ratio"},
        {"server.coalesced", "count"},
        {"model.build_ms", "ms"},
        {"model.eval_us", "us"},
        {"model.eval_ns_per_node", "ns"},
        {"model.rebuild_ms", "ms"},
        {"rbd.compile_ms", "ms"},
        {"bdd.reachable_nodes", "count"},
        {"bdd.allocated_nodes", "count"},
        {"analysis.points_per_s", "1/s"},
        {"analysis.worker_imbalance", "ratio"},
        {"sim.replication_ms", "ms"},
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.queue_high_water", "count"},
        {"loadgen.late_ms_p99", "ms"},
        {"loadgen.lines_sent", "count"},
        {"loadgen.lines_ok", "count"},
        {"loadgen.lines_failed", "count"},
    };
    return metrics;
}

void
RunResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 10)
        failures.push_back(what);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench

namespace
{

using namespace perfbench;

int
usage(const std::string &problem)
{
    std::cerr << "sdnav_perfbench: " << problem << "\n"
              << "usage: sdnav_perfbench --workload "
                 "query-hot|query-churn|offline --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--goldens DIR]\n"
              << "       sdnav_perfbench --self-test\n";
    return 2;
}

void
printMetrics(const char *title, const std::vector<MetricSpec> &specs,
             const std::map<std::string, double> &values,
             const RunResult &result)
{
    std::printf("%s\n", title);
    for (const MetricSpec &spec : specs) {
        auto it = values.find(spec.name);
        double value = it == values.end() ? 0.0 : it->second;
        auto note = result.notes.find(spec.name);
        std::printf("  %-28s %14.6g %-6s %s\n", spec.name, value, spec.unit,
                    it == values.end()
                        ? "(layer not reached by this workload)"
                        : (note == result.notes.end() ? ""
                                                      : note->second.c_str()));
    }
}

void
printSpanTable(const std::vector<SpanRecord> &spans)
{
    std::printf("span table (count, total and self time per layer):\n");
    std::printf("  %-28s %9s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const LayerRow &row : layerTable(spans)) {
        std::printf("  %-28s %9zu %12.3f %12.3f\n", row.name.c_str(),
                    row.count, row.totalMs, row.selfMs);
    }
}

std::string
resultLine(const RunConfig &config, const RunResult &result)
{
    using sdnav::json::Value;
    const auto &specs = config.trace ? perLayerMetrics() : endToEndMetrics();
    const auto &values = config.trace ? result.perLayer : result.endToEnd;
    Value metrics = Value::makeObject();
    for (const MetricSpec &spec : specs) {
        auto it = values.find(spec.name);
        double value = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(value))
            value = 1e12; // a failed line's latency; "correct" is false
        Value metric = Value::makeObject();
        metric.set("value", value);
        metric.set("unit", spec.unit);
        metrics.set(spec.name, std::move(metric));
    }
    Value line = Value::makeObject();
    line.set("correct", result.failed == 0);
    line.set("attempted", static_cast<double>(result.attempted));
    line.set("failed", static_cast<double>(result.failed));
    line.set("metrics", std::move(metrics));
    return line.dump();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--self-test")
            return runSelfTests() == 0 ? 0 : 1;
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                config.workload = value;
                haveWorkload = true;
            } else if (arg == "--seed") {
                config.seed = sdnav::parseCount(value, "--seed");
                haveSeed = true;
            } else if (arg == "--seconds") {
                config.seconds =
                    sdnav::parseDouble(value, "--seconds", 1e-3, 600.0);
                haveSeconds = true;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace must be 0 or 1");
                config.trace = value == "1";
                haveTrace = true;
            } else if (arg == "--out-dir") {
                config.outDir = value;
            } else if (arg == "--goldens") {
                config.goldensDir = value;
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception &e) {
            return usage(e.what());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are required");
    if (config.workload != "query-hot" && config.workload != "query-churn" &&
        config.workload != "offline")
        return usage("unknown workload " + config.workload);

    std::filesystem::create_directories(config.outDir);
    SpanRecorder::global().setEnabled(config.trace);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.trace ? 1 : 0);
    std::fflush(stdout);

    RunResult result;
    try {
        result = config.workload == "offline"
                     ? runOfflineWorkload(config)
                     : runQueryWorkload(config,
                                        config.workload == "query-churn");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sdnav_perfbench: run failed: %s\n", e.what());
        return 1;
    }

    for (const auto &[name, digest] : result.digests)
        std::printf("inputs digest %s=%s\n", name.c_str(), digest.c_str());
    if (auto ladder = result.notes.find("ladder"); ladder != result.notes.end())
        std::printf("rate ladder probes:\n%s", ladder->second.c_str());
    if (config.trace) {
        std::vector<SpanRecord> spans = SpanRecorder::global().spans();
        std::string tracePath = config.outDir + "/trace-" + config.workload +
                                "-" + std::to_string(config.seed) + ".json";
        SpanRecorder::global().writeChromeTrace(tracePath);
        printMetrics("per-layer metrics (traced run):", perLayerMetrics(),
                     result.perLayer, result);
        printSpanTable(spans);
        auto overhead = result.notes.find("trace_overhead");
        std::printf("tracing overhead: %s\nspans written to %s\n",
                    overhead == result.notes.end() ? "n/a"
                                                   : overhead->second.c_str(),
                    tracePath.c_str());
    } else {
        printMetrics("end-to-end metrics:", endToEndMetrics(),
                     result.endToEnd, result);
    }
    std::printf("  %-28s %14.6g %-6s (%llu failed of %llu attempted)\n",
                "failed_frac",
                result.attempted
                    ? static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted)
                    : 0.0,
                "ratio", static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
    for (const std::string &failure : result.failures)
        std::printf("FAILED: %s\n", failure.c_str());
    if (!result.invalidReason.empty()) {
        std::printf("INVALID RUN: %s\n", result.invalidReason.c_str());
        std::fprintf(stderr, "sdnav_perfbench: invalid run: %s\n",
                     result.invalidReason.c_str());
        return 3;
    }
    std::printf("%s\n", resultLine(config, result).c_str());
    return 0;
}
