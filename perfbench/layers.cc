/**
 * @file
 * Traced-run measurements both kinds of workload take the same way:
 * building each key's model directly, layer by layer, and re-running
 * each simulation replication on its own thread.
 */

#include <optional>
#include <thread>

#include "rbd/system.hh"
#include "spans.hh"
#include "stats.hh"
#include "workload.hh"

namespace perfbench
{

void
measureKeyBuilds(const std::vector<KeyToBuild> &keys,
                 std::map<std::string, double> &layer)
{
    Span phase("keys.build");
    double buildMs = 0.0, compileMs = 0.0, reachable = 0.0, allocated = 0.0;
    for (const KeyToBuild &key : keys) {
        Clock::time_point t0 = Clock::now();
        std::optional<sdnav::rbd::RbdSystem> system;
        {
            Span span("model.build");
            std::vector<sdnav::model::ExactComponentClass> classes;
            system.emplace(sdnav::model::buildExactSystem(
                key.catalog, key.topology, key.policy, {}, key.plane,
                &classes, key.order));
        }
        buildMs += msSince(t0);
        t0 = Clock::now();
        Span span("rbd.compile");
        sdnav::rbd::CompiledRbd compiled(*system);
        compileMs += msSince(t0);
        reachable += static_cast<double>(compiled.nodeCount());
        allocated += static_cast<double>(compiled.totalNodes());
    }
    double count = static_cast<double>(keys.size());
    layer["model.build_ms"] = buildMs / count;
    layer["rbd.compile_ms"] = compileMs / count;
    layer["bdd.reachable_nodes"] = reachable;
    layer["bdd.allocated_nodes"] = allocated;
}

void
measureReplications(const sdnav::fmea::ControllerCatalog &catalog,
                    const sdnav::topology::DeploymentTopology &topo,
                    const sdnav::sim::ControllerSimConfig &config,
                    const sdnav::sim::ReplicatedControllerResult &replicated,
                    RunResult &result)
{
    Span phase("sim.per_replication");
    std::size_t replications = replicated.perReplication.size();
    std::vector<double> ms(replications);
    std::vector<std::size_t> events(replications);
    {
        std::vector<std::thread> threads;
        for (std::size_t r = 0; r < replications; ++r) {
            threads.emplace_back([&, r, parent = phase.id()] {
                Span span("sim.replication", parent);
                sdnav::sim::ControllerSimConfig one = config;
                one.seed = sdnav::sim::replicationSeed(kSimSeed, r);
                Clock::time_point t0 = Clock::now();
                sdnav::sim::ControllerSimResult rep =
                    sdnav::sim::simulateController(
                        catalog, topo,
                        sdnav::model::SupervisorPolicy::Required, one);
                ms[r] = msSince(t0);
                events[r] = rep.events;
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    for (std::size_t r = 0; r < replications; ++r) {
        result.check(events[r] == replicated.perReplication[r].events,
                     "replication " + std::to_string(r) +
                         " differs from its replicated run");
    }
    result.perLayer["sim.replication_ms"] = median(ms);
}

} // namespace perfbench
