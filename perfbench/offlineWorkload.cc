/**
 * @file
 * The offline workload: the paper's table/figure/validation pipeline
 * with no server, in-process, on a 4-thread sweep pool.
 *
 * Set-up (timed 7 times, then before every further cycle; median):
 * the catalog, the Large topology, the compiled OpenContrail Large
 * CP/DP models and the rack topologies. Then whole cycles of two timed
 * parts run on fresh set-ups until --seconds is spent (at least three
 * cycles), and each metric is the median over cycles:
 *   (a) sweep: figure4Exact/figure5Exact on the paper grid, the
 *       seeded SwParams grid through the compiled CP/DP models, and
 *       the rack-ablation A_R sweep, which rebuilds the HW-exact model
 *       at every point;
 *   (b) sim: replicated behavioural simulation of OpenContrail Large
 *       and replicated renewal simulation of the HW-exact RBD.
 * Every cycle checks the figures and rack values against goldens/ at
 * check_goldens.sh's tolerance, the grid against the SW-centric
 * closed forms, and that the simulation CIs bracket the analytic
 * values.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "analysis/figures.hh"
#include "analysis/sweep.hh"
#include "bdd/bdd.hh"
#include "fmea/openContrail.hh"
#include "inputs.hh"
#include "model/exactModel.hh"
#include "model/hwCentric.hh"
#include "model/swCentric.hh"
#include "rbd/system.hh"
#include "sim/replication.hh"
#include "spans.hh"
#include "stats.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace sdnav;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kGridPoints = 1024;
constexpr std::size_t kRackPoints = 101;
constexpr std::size_t kRacks = 3;
constexpr std::size_t kMinCycles = 3;
constexpr std::size_t kSetups = 7;
constexpr std::size_t kFigurePoints = 21;

/** check_goldens.sh's tolerance for analytic CSVs. */
constexpr double kGoldenRtol = 1e-9;

constexpr std::size_t kSimReplications = 4;
constexpr double kControllerHorizonHours = 2e6;
constexpr double kRenewalHorizonHours = 2e5;

bool
within(double expected, double actual, double rtol)
{
    return std::fabs(expected - actual) <=
           rtol * std::max(std::fabs(expected), std::fabs(actual));
}

/** A golden CSV as rows of numbers (header dropped). */
std::vector<std::vector<double>>
readGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden " + path);
    std::vector<std::vector<double>> rows;
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        std::vector<double> row;
        std::stringstream cells(line);
        for (std::string cell; std::getline(cells, cell, ',');)
            row.push_back(std::stod(cell));
        rows.push_back(row);
    }
    return rows;
}

/** What set-up builds: the models and topologies the cycles reuse. */
struct Models
{
    fmea::ControllerCatalog catalog;
    topology::DeploymentTopology large;
    std::unique_ptr<model::ExactPlaneModel> cp;
    std::unique_ptr<model::ExactPlaneModel> dp;
    std::vector<topology::DeploymentTopology> racks;
};

Models
buildModels()
{
    Models m{fmea::openContrail3(), topology::largeTopology(), nullptr,
             nullptr, {}};
    m.cp = std::make_unique<model::ExactPlaneModel>(
        m.catalog, m.large, model::SupervisorPolicy::Required,
        fmea::Plane::ControlPlane);
    m.dp = std::make_unique<model::ExactPlaneModel>(
        m.catalog, m.large, model::SupervisorPolicy::Required,
        fmea::Plane::DataPlane);
    for (std::size_t r = 1; r <= kRacks; ++r)
        m.racks.push_back(topology::rackSweepTopology(r));
    return m;
}

/** Stressed HW parameters so the renewal CI resolves in a short run. */
model::HwParams
stressHwParams()
{
    model::HwParams p;
    p.roleAvailability = 0.99;
    p.vmAvailability = 0.98;
    p.hostAvailability = 0.985;
    p.rackAvailability = 0.995;
    return p;
}

struct Cycle
{
    double sweepS = 0.0;
    double simS = 0.0;
    double gridS = 0.0;
    double gridImbalance = 1.0;
    std::vector<double> pointMs;
    double evalMs = 0.0;
    double evalNodes = 0.0;
    std::size_t evals = 0;
    std::vector<double> rebuildMs;
    double controllerS = 0.0;
    sim::ReplicatedControllerResult controller;
};

} // anonymous namespace

RunResult
runOfflineWorkload(const RunConfig &config)
{
    RunResult result;
    OfflineInputs inputs = offlineInputs(config.seed, kGridPoints,
                                         kRackPoints);
    result.digests["grid"] = inputs.digest;
    SpanRecorder &recorder = SpanRecorder::global();

    // Set-up is timed 7 times up front and again before every cycle
    // after the first. Evaluation speed varies from build to build of
    // the same model (1.3 to 1.9 ms per OpenContrail Large CP
    // evaluation over twelve builds in one process), so each cycle
    // evaluates a fresh build and the median over cycles averages it.
    std::vector<double> setups;
    auto setUp = [&]() {
        Span span("setup");
        Clock::time_point t0 = Clock::now();
        auto built = std::make_unique<Models>(buildModels());
        setups.push_back(secondsSince(t0));
        return built;
    };
    for (std::size_t r = 1; r < kSetups; ++r)
        setUp();
    std::unique_ptr<Models> first = setUp();
    const Models &models = *first;

    // Reference values for the checks, outside every timed part.
    auto fig4 = readGolden(config.goldensDir + "/fig4.csv");
    auto fig5 = readGolden(config.goldensDir + "/fig5.csv");
    auto rackGolden = readGolden(config.goldensDir + "/rack_ablation.csv");
    model::SwAvailabilityModel closedForm(models.catalog, models.large,
                                          model::SupervisorPolicy::Required);
    std::vector<double> closedCp, closedDp;
    for (const model::SwParams &p : inputs.grid) {
        closedCp.push_back(
            closedForm.planeAvailability(p, fmea::Plane::ControlPlane));
        closedDp.push_back(
            closedForm.planeAvailability(p, fmea::Plane::DataPlane));
    }
    sim::ControllerSimConfig controllerConfig;
    controllerConfig.horizonHours = kControllerHorizonHours;
    model::SwParams staticParams = sim::staticParamsFor(controllerConfig);
    double analyticCp = models.cp->availability(staticParams);
    double analyticDp = models.dp->availability(staticParams);
    model::HwParams stress = stressHwParams();
    rbd::RbdSystem hwSystem = model::hwExactSystem(models.large, stress);
    double analyticHw = model::hwExactAvailability(models.large, stress);
    std::vector<sim::ComponentTimings> hwTimings =
        sim::exponentialTimingsFor(hwSystem, 100.0);
    sim::ReplicatedSimConfig replication;
    replication.replications = kSimReplications;
    replication.threads = kThreads;
    replication.baseSeed = kSimSeed;
    sim::RenewalSimConfig renewalConfig;
    renewalConfig.horizonHours = kRenewalHorizonHours;

    // bddNodeCount() walks the diagram; count once, outside the timing.
    const double nodesPerPoint = static_cast<double>(
        models.cp->bddNodeCount() + models.dp->bddNodeCount());
    analysis::SweepOptions sweep;
    sweep.threads = kThreads;
    const std::size_t rackJobs = kRacks * (kRackPoints + 1);

    auto runCycle = [&](const Models &m) {
        Cycle cycle;
        cycle.pointMs.resize(kGridPoints);
        std::vector<double> cp(kGridPoints), dp(kGridPoints);
        std::vector<double> rack(rackJobs);
        std::mutex evalMutex;
        BusyTimes gridBusy;

        Clock::time_point t0 = Clock::now();
        {
            Span part("offline.sweep");
            analysis::FigureData f4, f5;
            {
                Span span("analysis.figure4Exact");
                f4 = analysis::figure4Exact(m.catalog, {},
                                            kFigurePoints, sweep);
            }
            {
                Span span("analysis.figure5Exact");
                f5 = analysis::figure5Exact(m.catalog, {},
                                            kFigurePoints, sweep);
            }
            {
                Span grid("analysis.grid");
                std::uint64_t parent = grid.id();
                Clock::time_point g0 = Clock::now();
                analysis::forEachGridPoint(
                    kGridPoints,
                    [&](std::size_t i) {
                        thread_local bdd::ProbabilityScratch scratch;
                        Clock::time_point p0 = Clock::now();
                        double cpMs, dpMs;
                        {
                            Span span("model.eval", parent);
                            cp[i] = m.cp->availability(inputs.grid[i],
                                                            scratch);
                            cpMs = msSince(p0);
                        }
                        Clock::time_point d0 = Clock::now();
                        {
                            Span span("model.eval", parent);
                            dp[i] = m.dp->availability(inputs.grid[i],
                                                            scratch);
                            dpMs = msSince(d0);
                        }
                        double pointMs = msSince(p0);
                        cycle.pointMs[i] = pointMs;
                        gridBusy.add(pointMs);
                        std::lock_guard<std::mutex> lock(evalMutex);
                        cycle.evalMs += cpMs + dpMs;
                        cycle.evalNodes += nodesPerPoint;
                        cycle.evals += 2;
                    },
                    sweep);
                cycle.gridS = secondsSince(g0);
                cycle.gridImbalance = gridBusy.imbalance(kThreads);
            }
            {
                // A_R grid for each rack count, plus the default
                // parameters last (the golden rack_ablation row).
                Span ablation("analysis.rack_ablation");
                std::uint64_t parent = ablation.id();
                std::vector<double> rebuildMs(rackJobs);
                analysis::forEachGridPoint(
                    rackJobs,
                    [&](std::size_t job) {
                        std::size_t r = job / (kRackPoints + 1);
                        std::size_t i = job % (kRackPoints + 1);
                        model::HwParams p;
                        if (i < kRackPoints)
                            p.rackAvailability = inputs.rackAvailabilities[i];
                        Span span("model.rebuild", parent);
                        Clock::time_point r0 = Clock::now();
                        rack[job] =
                            model::hwExactAvailability(m.racks[r], p);
                        rebuildMs[job] = msSince(r0);
                    },
                    sweep);
                cycle.rebuildMs = std::move(rebuildMs);
            }
            cycle.sweepS = secondsSince(t0);

            for (std::size_t s = 0; s < 4; ++s) {
                for (std::size_t i = 0; i < kFigurePoints; ++i) {
                    bool ok4 = i < fig4.size() &&
                               within(fig4[i][0], f4.xs[i], 1e-12) &&
                               within(fig4[i][s + 1], f4.ys[s][i], kGoldenRtol);
                    bool ok5 = i < fig5.size() &&
                               within(fig5[i][s + 1], f5.ys[s][i], kGoldenRtol);
                    result.check(ok4, ok4 ? std::string()
                                          : "figure4Exact differs from "
                                            "goldens/fig4.csv");
                    result.check(ok5, ok5 ? std::string()
                                          : "figure5Exact differs from "
                                            "goldens/fig5.csv");
                }
            }
            for (std::size_t i = 0; i < kGridPoints; ++i) {
                bool ok = within(closedCp[i], cp[i], kGoldenRtol) &&
                          within(closedDp[i], dp[i], kGoldenRtol);
                result.check(ok, ok ? std::string()
                                    : "grid point " + std::to_string(i) +
                                          " differs from the closed form");
            }
            for (std::size_t r = 0; r < kRacks; ++r) {
                double value = rack[r * (kRackPoints + 1) + kRackPoints];
                bool ok = r < rackGolden.size() &&
                          within(rackGolden[r][1], value, kGoldenRtol);
                result.check(ok, ok ? std::string()
                                    : "rack " + std::to_string(r + 1) +
                                          " differs from "
                                          "goldens/rack_ablation.csv");
            }
        }

        Clock::time_point s0 = Clock::now();
        {
            Span part("offline.sim");
            {
                Span span("sim.controller_replicated");
                Clock::time_point c0 = Clock::now();
                cycle.controller = sim::simulateControllerReplicated(
                    m.catalog, m.large,
                    model::SupervisorPolicy::Required, controllerConfig,
                    replication);
                cycle.controllerS = secondsSince(c0);
            }
            sim::ReplicatedRenewalResult renewal;
            {
                Span span("sim.renewal_replicated");
                renewal = sim::simulateRenewalSystemReplicated(
                    hwSystem, hwTimings, renewalConfig, replication);
            }
            cycle.simS = secondsSince(s0);
            result.check(cycle.controller.cpAvailability.brackets(analyticCp),
                         "controller CP CI misses the exact CP value");
            result.check(cycle.controller.dpAvailability.brackets(analyticDp),
                         "controller DP CI misses the exact DP value");
            result.check(renewal.availability.brackets(analyticHw),
                         "renewal CI misses the HW-exact value");
        }
        return cycle;
    };

    // Cycles until the time is spent. A traced run alternates spans
    // off and on; the untraced cycles give the numbers, the difference
    // is the tracing overhead.
    std::vector<Cycle> untraced, traced;
    Clock::time_point start = Clock::now();
    for (std::size_t c = 0;; ++c) {
        bool spansOn = config.trace && c % 2 == 1;
        recorder.setEnabled(spansOn);
        std::unique_ptr<Models> fresh = c == 0 ? nullptr : setUp();
        (spansOn ? traced : untraced).push_back(runCycle(fresh ? *fresh : models));
        std::size_t wanted = config.trace ? 2 * kMinCycles : kMinCycles;
        if (c + 1 >= wanted && secondsSince(start) >= config.seconds)
            break;
    }
    recorder.setEnabled(config.trace);

    result.endToEnd["setup_s"] = median(setups);
    // Point latency is taken per cycle, then its median over cycles: a
    // stretch where the host stalled the run spoils one cycle's tail,
    // not the run's.
    std::vector<double> sweepS, simS, qps, cycleP50, cycleP99;
    for (const Cycle &cycle : untraced) {
        sweepS.push_back(cycle.sweepS);
        simS.push_back(cycle.simS);
        qps.push_back(static_cast<double>(kGridPoints) / cycle.gridS);
        cycleP50.push_back(median(cycle.pointMs));
        cycleP99.push_back(percentile(cycle.pointMs, 0.99));
    }
    result.endToEnd["sweep_s"] = median(sweepS);
    result.endToEnd["sim_s"] = median(simS);
    result.endToEnd["sustained_qps"] = median(qps);
    result.endToEnd["p50_ms"] = median(cycleP50);
    result.endToEnd["p99_ms"] = median(cycleP99);
    result.endToEnd["peak_rss_mb"] = peakRssMb();
    result.notes["p99_ms"] =
        "median over " + std::to_string(untraced.size()) +
        " cycles of " + std::to_string(kGridPoints) + " grid points, " +
        std::to_string(samplesBeyond(kGridPoints, 0.99)) +
        " beyond p99 in each";
    result.notes["sustained_qps"] =
        "grid points per second of the seeded sweep, " +
        std::to_string(kThreads) + " threads";

    // Per-layer numbers from every cycle, traced ones included.
    auto &layer = result.perLayer;
    std::vector<Cycle> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    double evalMs = 0.0, evalNodes = 0.0, evals = 0.0;
    std::vector<double> rebuild, imbalance, eventsPerS;
    for (const Cycle &cycle : all) {
        evalMs += cycle.evalMs;
        evalNodes += cycle.evalNodes;
        evals += static_cast<double>(cycle.evals);
        rebuild.insert(rebuild.end(), cycle.rebuildMs.begin(),
                       cycle.rebuildMs.end());
        imbalance.push_back(cycle.gridImbalance);
        eventsPerS.push_back(static_cast<double>(cycle.controller.events) /
                             cycle.controllerS);
    }
    layer["model.eval_us"] = evalMs * 1e3 / evals;
    layer["model.eval_ns_per_node"] = evalMs * 1e6 / evalNodes;
    double rebuildSum = 0.0;
    for (double ms : rebuild)
        rebuildSum += ms;
    layer["model.rebuild_ms"] = rebuildSum / static_cast<double>(rebuild.size());
    layer["analysis.points_per_s"] = median(qps);
    layer["analysis.worker_imbalance"] = median(imbalance);
    const sim::ReplicatedControllerResult &controller =
        untraced.front().controller;
    layer["sim.events"] = static_cast<double>(controller.events);
    layer["sim.events_per_s"] = median(eventsPerS);
    std::size_t highWater = 0;
    for (const sim::ControllerSimResult &rep : controller.perReplication)
        highWater = std::max(highWater, rep.queueHighWater);
    layer["sim.queue_high_water"] = static_cast<double>(highWater);

    if (!config.trace)
        return result;

    std::vector<double> tracedSweep;
    for (const Cycle &cycle : traced)
        tracedSweep.push_back(cycle.sweepS);
    {
        double off = median(sweepS), on = median(tracedSweep);
        char buffer[160];
        std::snprintf(buffer, sizeof(buffer),
                      "sweep part %.4f s traced vs %.4f s untraced: %+.4f s "
                      "(%+.1f%%)",
                      on, off, on - off, 100.0 * (on - off) / off);
        result.notes["trace_overhead"] = buffer;
    }

    // The grid's two keys built directly: RBD construction, then BDD
    // compile.
    std::vector<KeyToBuild> keys;
    for (fmea::Plane plane :
         {fmea::Plane::ControlPlane, fmea::Plane::DataPlane}) {
        keys.push_back({models.catalog, models.large,
                        model::SupervisorPolicy::Required, plane,
                        model::ExactVariableOrder::SharedInfrastructureFirst});
    }
    measureKeyBuilds(keys, layer);
    measureReplications(models.catalog, models.large, controllerConfig,
                        controller, result);
    return result;
}

} // namespace perfbench
