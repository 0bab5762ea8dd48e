/**
 * @file
 * What a workload run reports, and the metric catalogue every run
 * draws its names and units from.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fmea/catalog.hh"
#include "model/exactModel.hh"
#include "sim/replication.hh"
#include "spans.hh"
#include "topology/deployment.hh"

namespace perfbench
{

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;

    /** Where spans and request logs go (inside the checkout). */
    std::string outDir = ".bench_build/perfbench-out";

    /** The repository's golden CSVs. */
    std::string goldensDir = "goldens";
};

/** A metric's name and unit, as BENCHMARK.json lists them. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every untraced run reports all of them. */
const std::vector<MetricSpec> &endToEndMetrics();

/**
 * Per-layer metrics: every traced run reports all of them; a layer
 * the workload never reaches reads 0.
 */
const std::vector<MetricSpec> &perLayerMetrics();

/** Everything one run measured and checked. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** The first few failure descriptions, for the report. */
    std::vector<std::string> failures;

    /** Set when the measurement itself is unusable (not slow). */
    std::string invalidReason;

    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;

    /** Human-readable context printed beside the metrics. */
    std::map<std::string, std::string> notes;

    /** name -> hex digest of each seeded input set. */
    std::map<std::string, std::string> digests;

    /** Count one checked operation; false records a failure. */
    void check(bool ok, const std::string &what);
};

/**
 * Seed of every simulation the workloads run. Fixed, not drawn from
 * --seed: the confidence-interval checks must not fail at random one
 * run in twenty.
 */
inline constexpr std::uint64_t kSimSeed = 2019;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

/** Busy time per worker thread of one parallel loop. */
class BusyTimes
{
  public:
    void
    add(double ms)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        busy_[std::this_thread::get_id()] += ms;
    }

    /** Max over mean busy time across `threads` workers. */
    double
    imbalance(std::size_t threads) const
    {
        double maxBusy = 0.0, sum = 0.0;
        for (const auto &[thread, ms] : busy_) {
            maxBusy = std::max(maxBusy, ms);
            sum += ms;
        }
        return sum > 0.0 ? maxBusy * static_cast<double>(threads) / sum
                         : 1.0;
    }

  private:
    std::mutex mutex_;
    std::unordered_map<std::thread::id, double> busy_;
};

/** One model key as the traced run builds it directly. */
struct KeyToBuild
{
    sdnav::fmea::ControllerCatalog catalog;
    sdnav::topology::DeploymentTopology topology;
    sdnav::model::SupervisorPolicy policy;
    sdnav::fmea::Plane plane;
    sdnav::model::ExactVariableOrder order;
};

/**
 * Traced runs: build each key's RBD (buildExactSystem) and compile it
 * (CompiledRbd) inside spans; sets model.build_ms and rbd.compile_ms
 * (means per key) and the summed bdd.reachable_nodes and
 * bdd.allocated_nodes.
 */
void measureKeyBuilds(const std::vector<KeyToBuild> &keys,
                      std::map<std::string, double> &layer);

/**
 * Traced runs: re-run each replication of a replicated controller
 * simulation (seeded from kSimSeed) on its own thread inside a span,
 * check its event count against the replicated run's, and set
 * sim.replication_ms to the median replication time.
 */
void measureReplications(
    const sdnav::fmea::ControllerCatalog &catalog,
    const sdnav::topology::DeploymentTopology &topo,
    const sdnav::sim::ControllerSimConfig &config,
    const sdnav::sim::ReplicatedControllerResult &replicated,
    RunResult &result);

RunResult runQueryWorkload(const RunConfig &config, bool churn);
RunResult runOfflineWorkload(const RunConfig &config);

/** Run the statistics self-tests; returns the number of failures. */
int runSelfTests();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
