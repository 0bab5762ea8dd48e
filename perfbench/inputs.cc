#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "fmea/openContrail.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

using sdnav::model::SwParams;

/** splitmix64: a portable, seedable stream (std distributions are not). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    double
    between(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Log-uniform in [lo, hi]. */
    double
    logBetween(double lo, double hi)
    {
        return std::exp(between(std::log(lo), std::log(hi)));
    }

    /** 1 - 10^u, u uniform in [lo, hi]: an availability "nines" draw. */
    double
    nines(double lo, double hi)
    {
        return 1.0 - std::pow(10.0, between(lo, hi));
    }

  private:
    std::uint64_t state_;
};

/**
 * Skewed key draws in shuffled blocks: every block of sum(counts)
 * draws holds exactly counts[k] of key k, in seeded order. The skew
 * is exact at every block boundary, so the cost mix, and with it the
 * latency tail, does not drift from seed to seed.
 */
class StratifiedDraw
{
  public:
    StratifiedDraw(const std::vector<std::size_t> &counts, Rng &rng)
        : rng_(rng)
    {
        for (std::size_t k = 0; k < counts.size(); ++k)
            block_.insert(block_.end(), counts[k], k);
        next_ = block_.size();
    }

    std::size_t
    next()
    {
        if (next_ == block_.size()) {
            for (std::size_t i = block_.size(); i > 1; --i)
                std::swap(block_[i - 1], block_[rng_.next() % i]);
            next_ = 0;
        }
        return block_[next_++];
    }

  private:
    Rng &rng_;
    std::vector<std::size_t> block_;
    std::size_t next_;
};

/**
 * Every key once per cycle, in a fresh seeded order each cycle, with
 * no key within `spacing` draws of its previous one. Each cycle has
 * the same cost mix, which keys fall next to each other changes from
 * cycle to cycle rather than being fixed by the seed, and a cache
 * with room for fewer than `spacing` of these keys misses on every
 * draw.
 */
class RotationDraw
{
  public:
    RotationDraw(std::vector<std::size_t> keys, std::size_t spacing,
                 Rng &rng)
        : keys_(std::move(keys)), spacing_(spacing), rng_(rng)
    {
    }

    std::size_t
    next()
    {
        if (cycle_.empty())
            cycle_ = nextCycle();
        std::size_t key = cycle_.back();
        cycle_.pop_back();
        drawn_.push_back(key);
        return key;
    }

  private:
    bool
    recent(std::size_t key, const std::vector<std::size_t> &cycle) const
    {
        // The last `spacing` draws: the end of drawn_, then cycle.
        std::size_t fromCycle = std::min(cycle.size(), spacing_);
        if (std::find(cycle.end() - static_cast<std::ptrdiff_t>(fromCycle),
                      cycle.end(), key) != cycle.end())
            return true;
        std::size_t fromDrawn = std::min(drawn_.size(), spacing_ - fromCycle);
        return std::find(drawn_.end() - static_cast<std::ptrdiff_t>(fromDrawn),
                         drawn_.end(), key) != drawn_.end();
    }

    /** The next cycle, in draw order reversed (next() pops the back). */
    std::vector<std::size_t>
    nextCycle()
    {
        for (int attempt = 0; attempt < 1000; ++attempt) {
            std::vector<std::size_t> left = keys_, cycle;
            while (!left.empty()) {
                std::vector<std::size_t> allowed;
                for (std::size_t k : left)
                    if (!recent(k, cycle))
                        allowed.push_back(k);
                if (allowed.empty())
                    break;
                std::size_t k = allowed[rng_.next() % allowed.size()];
                cycle.push_back(k);
                left.erase(std::find(left.begin(), left.end(), k));
            }
            if (left.empty())
                return {cycle.rbegin(), cycle.rend()};
        }
        // The previous cycle's order always satisfies the spacing.
        std::vector<std::size_t> again(
            drawn_.end() - static_cast<std::ptrdiff_t>(keys_.size()),
            drawn_.end());
        return {again.rbegin(), again.rend()};
    }

    std::vector<std::size_t> keys_;
    std::size_t spacing_;
    Rng &rng_;
    std::vector<std::size_t> cycle_;
    std::vector<std::size_t> drawn_;
};

std::string
number(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

/** Fresh what-if parameters: operator timings plus platform overrides. */
struct DrawnParams
{
    SwParams params;
    std::string json;
};

DrawnParams
drawParams(Rng &rng)
{
    sdnav::prob::ProcessTimings timings;
    timings.mtbfHours = rng.logBetween(1000.0, 50000.0);
    timings.autoRestartHours = rng.logBetween(0.01, 1.0);
    timings.manualRestartHours = rng.logBetween(0.5, 24.0);
    double av = rng.nines(-5.5, -3.5);
    double ah = rng.nines(-5.0, -3.0);
    double ar = rng.nines(-6.0, -4.0);

    DrawnParams drawn;
    drawn.params = SwParams::fromTimings(timings);
    drawn.params.vmAvailability = av;
    drawn.params.hostAvailability = ah;
    drawn.params.rackAvailability = ar;
    drawn.json = "\"timings\":{\"mtbf\":" + number(timings.mtbfHours) +
                 ",\"restart\":" + number(timings.autoRestartHours) +
                 ",\"manual-restart\":" +
                 number(timings.manualRestartHours) +
                 "},\"params\":{\"av\":" + number(av) +
                 ",\"ah\":" + number(ah) + ",\"ar\":" + number(ar) + "}";
    return drawn;
}

RequestLine
makeLine(const std::vector<ModelKey> &keys, std::size_t key,
         std::size_t items, Rng &rng)
{
    RequestLine line;
    std::string body;
    for (std::size_t i = 0; i < items; ++i) {
        DrawnParams drawn = drawParams(rng);
        line.items.push_back(QueryItem{key, drawn.params});
        if (i > 0)
            body += ",";
        body.append("{").append(keys[key].jsonFields()).append(",");
        body.append(drawn.json).append("}");
    }
    line.text = items == 1 ? body : "{\"queries\":[" + body + "]}";
    return line;
}

void
finish(QueryStream &stream)
{
    Digest digest;
    for (const ModelKey &key : stream.keys)
        digest.add(key.jsonFields());
    for (std::size_t r : stream.resident)
        digest.add(static_cast<std::uint64_t>(r));
    for (const RequestLine &line : stream.lines)
        digest.add(line.text);
    stream.digest = digest.hex();
}

constexpr ModelKey kOcLargeCpReq{"opencontrail", "large", 3, true, true};
constexpr ModelKey kOcLargeCpNotReq{"opencontrail", "large", 3, false,
                                    true};
constexpr ModelKey kOcLargeDpReq{"opencontrail", "large", 3, true, false};
constexpr ModelKey kOcLargeDpNotReq{"opencontrail", "large", 3, false,
                                    false};

} // anonymous namespace

std::string
ModelKey::jsonFields() const
{
    return std::string("\"catalog\":\"") + catalog +
           "\",\"topology\":\"" + topology +
           "\",\"nodes\":" + std::to_string(nodes) + ",\"policy\":\"" +
           (required ? "required" : "not-required") + "\",\"plane\":\"" +
           (controlPlane ? "cp" : "dp") + "\"";
}

sdnav::server::QuerySpec
ModelKey::spec(const SwParams &params) const
{
    sdnav::server::QuerySpec spec;
    spec.catalog = catalog;
    spec.topology = topology;
    spec.nodes = nodes;
    spec.policy = policy();
    spec.plane = plane();
    spec.params = params;
    return spec;
}

sdnav::fmea::ControllerCatalog
ModelKey::catalogModel() const
{
    std::string name = catalog;
    if (name == "raft")
        return sdnav::fmea::raftStyleController();
    if (name == "fragile")
        return sdnav::fmea::fragileController();
    return sdnav::fmea::openContrail3();
}

sdnav::topology::DeploymentTopology
ModelKey::topologyModel() const
{
    std::size_t roles = catalogModel().roles().size();
    std::string name = topology;
    if (name == "small")
        return sdnav::topology::smallTopology(roles, nodes);
    if (name == "medium")
        return sdnav::topology::mediumTopology(roles, nodes);
    return sdnav::topology::largeTopology(roles, nodes);
}

sdnav::model::SupervisorPolicy
ModelKey::policy() const
{
    return required ? sdnav::model::SupervisorPolicy::Required
                    : sdnav::model::SupervisorPolicy::NotRequired;
}

sdnav::fmea::Plane
ModelKey::plane() const
{
    return controlPlane ? sdnav::fmea::Plane::ControlPlane
                        : sdnav::fmea::Plane::DataPlane;
}

sdnav::model::ExactVariableOrder
ModelKey::order() const
{
    return nodes > 3 ? sdnav::model::ExactVariableOrder::NodeMajor
                     : sdnav::model::ExactVariableOrder::SharedInfrastructureFirst;
}

double
QueryStream::queriesPerLine() const
{
    std::size_t queries = 0;
    for (const RequestLine &line : lines)
        queries += line.items.size();
    return lines.empty() ? 1.0
                         : static_cast<double>(queries) /
                               static_cast<double>(lines.size());
}

std::string
QueryStream::lineWithId(std::size_t index, std::uint64_t id) const
{
    const std::string &text = lines[index].text;
    return "{\"id\":" + std::to_string(id) + "," + text.substr(1);
}

QueryStream
hotStream(std::uint64_t seed, std::size_t lines)
{
    QueryStream stream;
    stream.keys = {kOcLargeCpReq,
                   kOcLargeCpNotReq,
                   kOcLargeDpReq,
                   kOcLargeDpNotReq,
                   {"raft", "large", 15, true, true},
                   {"fragile", "large", 31, true, true}};
    // Fixed skew: the seed changes which queries are drawn and in what
    // order, never the key mix, so the cost per query is the same on
    // every seed. Single lines (per 20): 7 OC CP required, 3 OC CP
    // not-required, 3 DP, 2 raft, 5 fragile, so the median line is
    // one of the ~2 ms CP evaluations, not the edge between two costs.
    // Sweep clients batch the CP keys (per 10): 3 OC required, 2 OC
    // not-required, 3 raft, 2 fragile; the costliest, raft, fills the
    // top sixth of the batches, so the p99 line is a raft batch.
    Rng rng(seed ^ 0x686f74ULL);
    StratifiedDraw singles({7, 3, 2, 1, 2, 5}, rng);
    StratifiedDraw batches({3, 2, 0, 0, 3, 2}, rng);
    for (std::size_t k = 0; k < stream.keys.size(); ++k)
        stream.resident.push_back(k);
    for (std::size_t i = 0; i < lines; ++i) {
        bool batch = i % kBatchEvery == kBatchEvery - 1;
        std::size_t key = batch ? batches.next() : singles.next();
        stream.lines.push_back(
            makeLine(stream.keys, key, batch ? kBatchSize : 1, rng));
    }
    finish(stream);
    return stream;
}

QueryStream
churnStream(std::uint64_t seed, std::size_t lines)
{
    QueryStream stream;
    // Hot set (resident), then the rotating keys:
    // compile-heavy, and more of them than the cache has room for
    // next to the hot set, so every rotating line misses.
    stream.keys = {kOcLargeCpReq,
                   kOcLargeDpReq,
                   kOcLargeDpNotReq,
                   {"opencontrail", "small", 3, true, true},
                   {"opencontrail", "medium", 3, true, true},
                   {"opencontrail", "medium", 3, false, true},
                   kOcLargeCpNotReq,
                   {"raft", "large", 9, true, true},
                   {"raft", "large", 15, true, true},
                   {"raft", "medium", 15, true, true},
                   {"fragile", "large", 31, true, true},
                   {"fragile", "small", 31, true, true}};
    const std::size_t hotKeys = 3;
    stream.resident = {0, 1, 2};
    Rng rng(seed ^ 0x636875726eULL);
    // Lines i % 8 in {1, 4, 7} rotate (3 in 8, all single queries);
    // the rest hit, the batch included. The hot draw (per 10: 4 OC CP,
    // 3 + 3 DP) puts the median line near the middle of the OC CP
    // hits, so p50 is a hit line's latency behind the compiles, not
    // the edge between two modes.
    StratifiedDraw hot({4, 3, 3}, rng);
    std::vector<std::size_t> rotation;
    for (std::size_t k = hotKeys; k < stream.keys.size(); ++k)
        rotation.push_back(k);
    RotationDraw rotating(rotation, kChurnSpacing, rng);
    for (std::size_t i = 0; i < lines; ++i) {
        bool miss = i % 8 == 1 || i % 8 == 4 || i % 8 == 7;
        bool batch = i % kBatchEvery == kChurnBatchAt;
        std::size_t key = miss ? rotating.next() : hot.next();
        stream.lines.push_back(
            makeLine(stream.keys, key, batch ? kBatchSize : 1, rng));
    }
    finish(stream);
    return stream;
}

OfflineInputs
offlineInputs(std::uint64_t seed, std::size_t gridPoints,
              std::size_t rackPoints)
{
    OfflineInputs inputs;
    Rng rng(seed ^ 0x6f66666c696e65ULL);
    Digest digest;
    for (std::size_t i = 0; i < gridPoints; ++i) {
        SwParams p;
        p.processAvailability = rng.nines(-6.0, -3.5);
        p.manualProcessAvailability = rng.nines(-5.0, -2.5);
        p.vmAvailability = rng.nines(-5.5, -3.5);
        p.hostAvailability = rng.nines(-5.0, -3.0);
        p.rackAvailability = rng.nines(-6.0, -4.0);
        for (double v : {p.processAvailability, p.manualProcessAvailability,
                         p.vmAvailability, p.hostAvailability,
                         p.rackAvailability})
            digest.add(v);
        inputs.grid.push_back(p);
    }
    for (std::size_t i = 0; i < rackPoints; ++i) {
        double ar = 0.9999 + (0.999999 - 0.9999) * static_cast<double>(i) /
                                 static_cast<double>(rackPoints - 1);
        digest.add(ar);
        inputs.rackAvailabilities.push_back(ar);
    }
    inputs.digest = digest.hex();
    return inputs;
}

} // namespace perfbench
