/**
 * @file
 * Seeded inputs of the three workloads. The program under test sees
 * only what these functions generate: request lines for sdnavd, and
 * parameter grids for the offline sweeps. The same seed gives the
 * same inputs, and every input set carries a digest so two commits
 * can be shown to have run identical inputs.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fmea/catalog.hh"
#include "model/exactModel.hh"
#include "model/params.hh"
#include "server/protocol.hh"
#include "topology/deployment.hh"

namespace perfbench
{

/** One compiled-model key: what sdnavd caches a model under. */
struct ModelKey
{
    const char *catalog;
    const char *topology;
    std::size_t nodes;
    bool required;
    bool controlPlane;

    /** The key's query fields as JSON members (no braces). */
    std::string jsonFields() const;

    /** The validated query sdnavd would build for these params. */
    sdnav::server::QuerySpec spec(const sdnav::model::SwParams &params) const;

    /** The key's catalog, topology, policy and plane, built directly. */
    sdnav::fmea::ControllerCatalog catalogModel() const;
    sdnav::topology::DeploymentTopology topologyModel() const;
    sdnav::model::SupervisorPolicy policy() const;
    sdnav::fmea::Plane plane() const;

    /**
     * The variable order sdnavd compiles this key with: the golden
     * order at paper scale, node-major past three nodes.
     */
    sdnav::model::ExactVariableOrder order() const;
};

/** One query item of a request line. */
struct QueryItem
{
    std::size_t key = 0; // index into QueryStream::keys
    sdnav::model::SwParams params{};
};

/** One request line: a single query, or a "queries" batch. */
struct RequestLine
{
    std::string text; // without "id" and without the newline
    std::vector<QueryItem> items;
};

/** A workload's seeded request stream. */
struct QueryStream
{
    std::vector<ModelKey> keys;

    /** Keys the server is primed with during set-up. */
    std::vector<std::size_t> resident;

    std::vector<RequestLine> lines;
    std::string digest;

    /** Mean queries per line (batches count every item). */
    double queriesPerLine() const;

    /** The line with its request id spliced in. */
    std::string lineWithId(std::size_t index, std::uint64_t id) const;
};

/** Lines in one batch, and how often a batch occurs (1 in N lines). */
inline constexpr std::size_t kBatchSize = 8;
inline constexpr std::size_t kBatchEvery = 16;

/**
 * query-hot: every key resident after set-up, drawn with a fixed
 * skew; fresh seeded timings/params on every query.
 */
QueryStream hotStream(std::uint64_t seed, std::size_t lines);

/**
 * query-churn: five lines in eight on a small resident hot set, three
 * rotating through more compile-heavy keys than the cache holds,
 * each key once per cycle in a fresh seeded order, so every rotating
 * line misses and every cycle costs the same.
 */
QueryStream churnStream(std::uint64_t seed, std::size_t lines);

/** Model-cache capacity the churn workload runs with. */
inline constexpr std::size_t kChurnCacheCapacity = 8;

/**
 * Rotating lines between two uses of one key, at least: more than the
 * cache has room for beside the hot set, with a margin for hot keys
 * the cache evicts between their (rarer) uses.
 */
inline constexpr std::size_t kChurnSpacing = 6;

/**
 * Where in every kBatchEvery churn lines the batch falls: a hot-set
 * line, so the rotating lines are all single queries and each
 * rotating key costs the same on every seed.
 */
inline constexpr std::size_t kChurnBatchAt = 14;

/** Offline inputs: the seeded SwParams grid. */
struct OfflineInputs
{
    std::vector<sdnav::model::SwParams> grid;

    /** A_R values of the rack-ablation sweep (fixed grid). */
    std::vector<double> rackAvailabilities;

    std::string digest;
};

OfflineInputs offlineInputs(std::uint64_t seed, std::size_t gridPoints,
                            std::size_t rackPoints);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
