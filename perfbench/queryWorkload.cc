/**
 * @file
 * The query-hot and query-churn workloads: an in-process sdnavd
 * (server::Server, 2 workers) driven open loop over 4 connections.
 *
 * Phases of one run (S = --seconds):
 *   set-up     start the server and prime the resident keys (timed)
 *   warm-up    a rung at the reference rate (10% of S), checked, untimed
 *   round      twice: a reference-rate window, an in-process sweep of
 *              the stream's first lines (no sockets or queues), another
 *              window, a replicated simulation whose CIs must bracket
 *              the served CP/DP answers, and a spare server's set-up
 *              (timed, then stopped); the twelve windows take 33% of S
 *              (churn 48%)
 *   ladder     from the reference rung (its probe is the windows so
 *              far), gallop up the fixed rate ladder a doubling at a
 *              time, then bisect to the rung pair whose p99 brackets
 *              the latency limit (each rung 6-15% of S)
 *   round
 *   ladder     a second look: from the lower bracketing rung, probe
 *              again and walk up a rung at a time while the limit is
 *              met; a rung's p99 is the lowest over its probes
 *   round
 * p50 is the median of the windows' p50s and p99 the median of the
 * p99s of window pairs; setup_s, sweep_s and sim_s are medians of
 * their seven, six and six repetitions. The windows walk on through
 * the stream from its first line, and the ladder on its own cursor, so
 * a seed's reference windows send the same lines in every run.
 * A traced run adds a serial replay of the stream through
 * parseRequest -> ModelCache::acquire -> availability -> reply
 * encode, a direct build of every key, and per-replication
 * simulation, all inside spans.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "analysis/sweep.hh"
#include "bdd/bdd.hh"
#include "common/json.hh"
#include "fmea/openContrail.hh"
#include "loadgen.hh"
#include "model/exactModel.hh"
#include "server/lineClient.hh"
#include "server/modelCache.hh"
#include "server/server.hh"
#include "sim/replication.hh"
#include "spans.hh"
#include "stats.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace sdnav;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSweepThreads = 4;

/**
 * Rounds of 2 x (reference window, in-process sweep, reference window,
 * simulation)
 * spread over the run: before the ladder, after it, and after the
 * second look at its bracketing rungs.
 */
constexpr std::size_t kRounds = 3;
constexpr std::size_t kRepetitionsPerRound = 2;
constexpr std::size_t kWindowsPerRound = 2 * kRepetitionsPerRound;

/** Share of --seconds one ladder rung takes (at least). */
constexpr double kRungShare = 0.06;
constexpr std::size_t kMaxBatch = 256;

/** Stream lines whose answers are checked against direct evaluation. */
constexpr std::size_t kSampleEvery = 64;
constexpr double kTolerance = 1e-12;

constexpr double kSimHorizonHours = 5e5;
constexpr std::size_t kSimReplications = 4;

/** Rungs per doubling of the rate ladder, and its length. */
constexpr int kRungsPerDoubling = 4;
constexpr std::size_t kLadderRungs = 37; // 9 doublings


/** Lines a ladder rung should hold for its p99 to have support. */
constexpr double kLinesPerRung = 300.0;

/**
 * The reference rate is a ladder rung at about a fifth to a quarter of
 * the seed's sustained rate. There, at the seed, a connection's next
 * line falls due after its previous reply is back, so the reference
 * latency measures service, not pipelining on one connection. The
 * churn reference gets a larger share of the run: its p99 line is one
 * of the costliest compiles, a few in a hundred lines.
 */
struct Profile
{
    const char *name;
    double limitMs;
    std::vector<double> ladder;
    std::size_t referenceRung;
    double referenceShare; // of --seconds, over all reference windows
    std::size_t cacheCapacity;
    std::size_t streamLines;
    std::size_t sweepLines;

    double referenceQps() const { return ladder[referenceRung]; }
};

Profile
hotProfile()
{
    return {"query-hot",
            50.0,
            geometricLadder(50.0, kLadderRungs, kRungsPerDoubling),
            8, // 200 q/s
            0.33,
            16,
            16384,
            2048};
}

Profile
churnProfile()
{
    return {"query-churn",
            120.0,
            geometricLadder(12.5, kLadderRungs, kRungsPerDoubling),
            10, // 70.7 q/s
            0.48,
            kChurnCacheCapacity,
            4096,
            256};
}

/** Models the benchmark builds itself to check served answers. */
class DirectModels
{
  public:
    explicit DirectModels(const QueryStream &stream) : stream_(stream) {}

    double
    availability(std::size_t key, const model::SwParams &params)
    {
        std::unique_ptr<model::ExactPlaneModel> &m = models_[key];
        if (!m) {
            const ModelKey &k = stream_.keys[key];
            model::ExactPlaneModel::Options options;
            options.order = k.order();
            m = std::make_unique<model::ExactPlaneModel>(
                k.catalogModel(), k.topologyModel(), k.policy(), k.plane(),
                options);
        }
        return m->availability(params);
    }

  private:
    const QueryStream &stream_;
    std::unordered_map<std::size_t, std::unique_ptr<model::ExactPlaneModel>>
        models_;
};

/** Cache outcomes reported in replies. */
struct CacheTally
{
    std::uint64_t hit = 0;
    std::uint64_t miss = 0;
    std::uint64_t coalesced = 0;

    void
    add(const std::string &outcome)
    {
        if (outcome == "hit")
            ++hit;
        else if (outcome == "miss")
            ++miss;
        else if (outcome == "coalesced")
            ++coalesced;
    }
};

/** Check one query result object against the stream's item. */
bool
checkItem(const json::Value &result, const QueryStream &stream,
          const QueryItem &item, DirectModels *direct, CacheTally &tally)
{
    if (!result.isObject() || !result.boolOr("ok", false))
        return false;
    model::SwParams none;
    if (result.stringOr("model_key", "") !=
        stream.keys[item.key].spec(none).modelKey())
        return false;
    tally.add(result.stringOr("cache", ""));
    if (direct != nullptr) {
        double expected = direct->availability(item.key, item.params);
        double served = result.numberOr("availability", -1.0);
        if (!(std::fabs(served - expected) <= kTolerance))
            return false;
    }
    return true;
}

/** Check a reply line; direct is non-null for sampled lines. */
bool
checkReply(const std::string &reply, std::uint64_t id,
           const QueryStream &stream, std::size_t streamIndex,
           DirectModels *direct, CacheTally &tally)
{
    json::Value doc;
    try {
        doc = json::parse(reply);
    } catch (const std::exception &) {
        return false;
    }
    if (!doc.isObject() || doc.numberOr("id", -1.0) != static_cast<double>(id))
        return false;
    const RequestLine &line = stream.lines[streamIndex];
    if (line.items.size() == 1)
        return checkItem(doc, stream, line.items[0], direct, tally);
    if (!doc.boolOr("ok", false) || !doc.contains("results"))
        return false;
    const json::Value &results = doc.at("results");
    if (!results.isArray() || results.asArray().size() != line.items.size())
        return false;
    for (std::size_t i = 0; i < line.items.size(); ++i) {
        if (!checkItem(results.asArray()[i], stream, line.items[i], direct,
                       tally))
            return false;
    }
    return true;
}

/** Per-line latencies of a rung after checking every reply. */
struct JudgedRung
{
    std::vector<double> latencyMs; // infinity for failed lines
    std::vector<double> lateMs;
    std::size_t ok = 0;
    std::size_t failed = 0;
};

JudgedRung
judge(const std::vector<LineOutcome> &lines, const QueryStream &stream,
      DirectModels &direct, CacheTally &tally, RunResult &result)
{
    JudgedRung judged;
    for (std::size_t k = 0; k < lines.size(); ++k) {
        const LineOutcome &line = lines[k];
        bool sampled = line.streamIndex % kSampleEvery == 0;
        bool ok = line.answered &&
                  checkReply(line.reply, k, stream, line.streamIndex,
                             sampled ? &direct : nullptr, tally);
        result.check(ok, ok ? std::string()
                            : "line " + std::to_string(line.streamIndex) +
                                  (line.answered ? " wrong reply: " + line.reply
                                                 : " unanswered"));
        judged.latencyMs.push_back(
            ok ? line.latencyMs : std::numeric_limits<double>::infinity());
        judged.lateMs.push_back(line.lateMs);
        (ok ? judged.ok : judged.failed) += 1;
    }
    return judged;
}

/** Layer timings the serial replay collects (traced runs). */
struct LayerSamples
{
    std::vector<double> parseMs;
    std::vector<double> encodeMs;
    std::vector<double> acquireHitMs;
    std::vector<double> acquireMissMs;
    double evalMs = 0.0;
    double evalNodes = 0.0;
    std::size_t evals = 0;

    /** Reachable nodes of a model; bddNodeCount() walks the diagram,
     *  so each model is counted once. */
    double
    nodes(const model::ExactPlaneModel &m)
    {
        auto [it, added] = nodeCounts.emplace(&m, 0.0);
        if (added)
            it->second = static_cast<double>(m.bddNodeCount());
        return it->second;
    }

    std::unordered_map<const model::ExactPlaneModel *, double> nodeCounts;
};

/** One line answered in-process the way a server worker would. */
struct Answer
{
    std::string reply;
    std::vector<double> availabilities;
};

Answer
answerLine(const QueryStream &stream, std::size_t index,
           server::ModelCache &cache, bdd::ProbabilityScratch &scratch,
           std::uint64_t parentSpan, LayerSamples *samples)
{
    Span lineSpan("replay.line", parentSpan);
    Answer answer;
    server::Request request;
    {
        Span span("server.parse");
        Clock::time_point t0 = Clock::now();
        request = server::parseRequest(stream.lineWithId(index, index),
                                       kMaxBatch);
        if (samples)
            samples->parseMs.push_back(msSince(t0));
    }
    std::vector<json::Value> results;
    for (const server::ParsedQuery &query : request.queries) {
        server::CacheLookup lookup;
        {
            Span span("server.acquire");
            Clock::time_point t0 = Clock::now();
            lookup = cache.acquire(query.spec);
            if (samples)
                (lookup.hit ? samples->acquireHitMs : samples->acquireMissMs)
                    .push_back(msSince(t0));
        }
        double availability;
        {
            Span span("model.eval");
            Clock::time_point t0 = Clock::now();
            availability = lookup.model->availability(query.spec.params,
                                                      scratch);
            if (samples) {
                samples->evalMs += msSince(t0);
                samples->evalNodes += samples->nodes(*lookup.model);
                ++samples->evals;
            }
        }
        answer.availabilities.push_back(availability);
        json::Value item = json::Value::makeObject();
        item.set("ok", true);
        item.set("availability", availability);
        item.set("plane", query.spec.planeName());
        item.set("model_key", query.spec.modelKey());
        item.set("cache", lookup.hit ? "hit" : "miss");
        results.push_back(std::move(item));
    }
    {
        Span span("server.reply_encode");
        Clock::time_point t0 = Clock::now();
        json::Value reply = json::Value::makeObject();
        reply.set("id", request.id);
        if (request.kind == server::Request::Kind::Query) {
            for (const auto &[key, value] : results[0].asObject())
                reply.set(key, value);
        } else {
            reply.set("ok", true);
            json::Value items = json::Value::makeArray();
            for (json::Value &item : results)
                items.push(std::move(item));
            reply.set("results", std::move(items));
        }
        answer.reply = reply.dump();
        if (samples)
            samples->encodeMs.push_back(msSince(t0));
    }
    return answer;
}

void
primeCache(server::ModelCache &cache, const QueryStream &stream)
{
    for (std::size_t key : stream.resident)
        cache.acquire(stream.keys[key].spec({}));
}

/**
 * One evaluation scratch per sweep worker, kept across sweeps the way
 * a server worker keeps its thread's: the sweep pool starts fresh
 * threads on every call, and a cold scratch would charge each
 * repetition the page faults a long-running worker pays once.
 */
class ScratchPool
{
  public:
    explicit ScratchPool(std::size_t workers) : slots_(workers) {}

    /** Forget which thread held which scratch (new sweep, new threads). */
    void
    reassign()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        owner_.clear();
    }

    /** This thread's scratch for the current sweep. */
    bdd::ProbabilityScratch &
    mine()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, added] =
            owner_.emplace(std::this_thread::get_id(), owner_.size());
        return slots_.at(it->second).scratch;
    }

  private:
    /** A line each: evaluation bumps a counter in the scratch, and
     *  neighbouring scratches would share cache lines across workers. */
    struct alignas(64) Slot
    {
        bdd::ProbabilityScratch scratch;
    };

    std::mutex mutex_;
    std::vector<Slot> slots_;
    std::unordered_map<std::thread::id, std::size_t> owner_;
};

/** One in-process sweep over the stream's first lines. */
struct SweepRep
{
    double wallS = 0.0;
    double pointsPerS = 0.0;
    double imbalance = 1.0;
};

SweepRep
sweepStream(const QueryStream &stream, std::size_t lines,
            server::ModelCache &cache, ScratchPool &scratch,
            DirectModels &direct, RunResult &result)
{
    scratch.reassign();
    std::vector<Answer> answers(lines);
    BusyTimes busy;
    analysis::SweepOptions options;
    options.threads = kSweepThreads;
    options.chunk = 4;

    Span phase("analysis.stream_sweep");
    std::uint64_t parent = phase.id();
    Clock::time_point start = Clock::now();
    analysis::forEachGridPoint(
        lines,
        [&](std::size_t i) {
            Clock::time_point t0 = Clock::now();
            answers[i] = answerLine(stream, i, cache, scratch.mine(), parent,
                                    nullptr);
            busy.add(msSince(t0));
        },
        options);
    SweepRep rep;
    rep.wallS = secondsSince(start);
    rep.pointsPerS = static_cast<double>(lines) / rep.wallS;
    rep.imbalance = busy.imbalance(options.threads);

    for (std::size_t i = 0; i < lines; i += kSampleEvery) {
        const RequestLine &line = stream.lines[i];
        bool ok = answers[i].availabilities.size() == line.items.size();
        for (std::size_t q = 0; ok && q < line.items.size(); ++q) {
            double expected =
                direct.availability(line.items[q].key, line.items[q].params);
            ok = std::fabs(answers[i].availabilities[q] - expected) <=
                 kTolerance;
        }
        result.check(ok, "in-process sweep line " + std::to_string(i));
    }
    return rep;
}

/** The served availability of a key at the given parameters. */
double
servedAvailability(std::uint16_t port, const ModelKey &key,
                   const model::SwParams &p)
{
    auto number = [](double v) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", v);
        return std::string(buffer);
    };
    server::LineClient client;
    client.connect(port);
    client.sendLine("{\"id\":\"sim-check\"," + key.jsonFields() +
                    ",\"params\":{\"a\":" + number(p.processAvailability) +
                    ",\"as\":" + number(p.manualProcessAvailability) +
                    ",\"av\":" + number(p.vmAvailability) +
                    ",\"ah\":" + number(p.hostAvailability) +
                    ",\"ar\":" + number(p.rackAvailability) + "}}");
    json::Value reply = json::parse(client.recvLine());
    return reply.boolOr("ok", false) ? reply.numberOr("availability", -1.0)
                                     : -1.0;
}

std::unique_ptr<server::Server>
startServer(const Profile &profile, const QueryStream &stream,
            const std::string &requestLog)
{
    server::ServerOptions options;
    options.workers = kWorkers;
    options.cacheCapacity = profile.cacheCapacity;
    options.requestLogPath = requestLog;
    auto srv = std::make_unique<server::Server>(options);
    srv->start();
    // Prime with one batch so both workers compile in parallel.
    std::string batch = "{\"id\":\"prime\",\"queries\":[";
    for (std::size_t i = 0; i < stream.resident.size(); ++i) {
        batch += (i ? ",{" : "{") +
                 stream.keys[stream.resident[i]].jsonFields() + "}";
    }
    server::LineClient client;
    client.connect(srv->port());
    client.sendLine(batch + "]}");
    json::Value reply = json::parse(client.recvLine());
    if (!reply.boolOr("ok", false))
        throw std::runtime_error("priming failed: " + reply.dump());
    return srv;
}

void
stopServer(std::unique_ptr<server::Server> &srv)
{
    if (srv) {
        srv->requestStop();
        srv->wait();
        srv.reset();
    }
}

} // anonymous namespace

RunResult
runQueryWorkload(const RunConfig &config, bool churn)
{
    RunResult result;
    Profile profile = churn ? churnProfile() : hotProfile();
    QueryStream stream = churn ? churnStream(config.seed, profile.streamLines)
                               : hotStream(config.seed, profile.streamLines);
    result.digests["stream"] = stream.digest;
    DirectModels direct(stream);
    SpanRecorder &recorder = SpanRecorder::global();
    const double S = config.seconds;

    // Set-up: this server stays up for the measurement; every round
    // repetition times another, spare one, so the median spans the run
    // rather than the process's first second.
    std::string requestLog =
        config.trace ? config.outDir + "/requests-" + profile.name + "-" +
                           std::to_string(config.seed) + ".jsonl"
                     : "";
    std::vector<double> setups;
    auto timedSetup = [&](const std::string &log) {
        Span span("setup");
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<server::Server> started =
            startServer(profile, stream, log);
        setups.push_back(secondsSince(t0));
        return started;
    };
    std::unique_ptr<server::Server> srv = timedSetup(requestLog);

    // The in-process sweep's own cache, compiled and primed now, before
    // any load, like the server's: every repetition then evaluates
    // the same resident models (the churn keys still miss each time).
    server::ModelCache sweepCache(profile.cacheCapacity);
    primeCache(sweepCache, stream);

    CacheTally tally;
    std::size_t linesSent = 0, linesOk = 0, linesFailed = 0;
    LoadGenerator generator(srv->port(), kConnections);
    const double drainS = std::max(2.0, 0.3 * S);
    // One checked open-loop run at a fixed rate, taking the stream's
    // lines from `cursor` on and moving it past them. The reference
    // windows and the ladder each keep their own cursor, so every
    // window sends lines no earlier window sent, and the reference
    // windows send the same lines in every run of a seed.
    auto openLoop = [&](const char *name, std::size_t &cursor, double rate,
                        double seconds) {
        Span span(name);
        JudgedRung judged =
            judge(generator.run(stream, cursor, rate, seconds, drainS),
                  stream, direct, tally, result);
        cursor += judged.latencyMs.size();
        linesSent += judged.latencyMs.size();
        linesOk += judged.ok;
        linesFailed += judged.failed;
        return judged;
    };

    // Warm-up at the reference rate: the workers' evaluation scratch
    // and the models' pages are touched once before anything is timed.
    std::size_t warmupCursor = 0, referenceCursor = 0, rungCursor = 0;
    openLoop("loadgen.warmup", warmupCursor, profile.referenceQps(),
             std::max(0.5, 0.1 * S));

    // The reference windows, the sweep and simulation repetitions and
    // the ladder are interleaved over the run, so each metric averages
    // the machine's speed over the whole run, not one stretch of it.
    // p50 is taken per window and p99 per pair of windows (one
    // sweep apart), each then the median over the run: a stretch where
    // the host stalled the run spoils one window's figures, not the
    // run's.
    JudgedRung reference;
    std::vector<double> windowP50, pairP99, pair;
    std::string windowNotes = "window p50s (ms):", pairNotes;
    auto referenceWindow = [&]() {
        JudgedRung window = openLoop(
            "loadgen.reference", referenceCursor, profile.referenceQps(),
            profile.referenceShare * S / (kRounds * kWindowsPerRound));
        reference.latencyMs.insert(reference.latencyMs.end(),
                                   window.latencyMs.begin(),
                                   window.latencyMs.end());
        reference.lateMs.insert(reference.lateMs.end(),
                                window.lateMs.begin(), window.lateMs.end());
        windowP50.push_back(median(window.latencyMs));
        pair.insert(pair.end(), window.latencyMs.begin(),
                    window.latencyMs.end());
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), " %.3f", windowP50.back());
        windowNotes += buffer;
        if (windowP50.size() % 2 == 0) {
            pairP99.push_back(percentile(pair, 0.99));
            std::snprintf(buffer, sizeof(buffer), " %.3f", pairP99.back());
            pairNotes += buffer;
            pair.clear();
        }
    };

    // In-process sweep of the same questions. A traced run also runs
    // each repetition with spans on: the difference is the overhead.
    std::vector<SweepRep> sweeps;
    std::vector<double> untracedS, tracedS;
    ScratchPool scratch(kSweepThreads);
    // Warm every worker's scratch once, as a running server has.
    sweepStream(stream, profile.sweepLines, sweepCache, scratch, direct,
                result);
    auto sweepRep = [&](bool spansOn) {
        recorder.setEnabled(spansOn);
        SweepRep rep = sweepStream(stream, profile.sweepLines, sweepCache,
                                   scratch, direct, result);
        recorder.setEnabled(config.trace);
        (spansOn ? tracedS : untracedS).push_back(rep.wallS);
        sweeps.push_back(rep);
    };

    // Simulation: replications of OpenContrail Large whose CIs must
    // bracket what the server answers at the equivalent parameters.
    sim::ControllerSimConfig simConfig;
    simConfig.horizonHours = kSimHorizonHours;
    sim::ReplicatedSimConfig replication;
    replication.replications = kSimReplications;
    replication.threads = kSweepThreads;
    replication.baseSeed = kSimSeed;
    fmea::ControllerCatalog catalog = fmea::openContrail3();
    topology::DeploymentTopology topo = topology::largeTopology();
    std::vector<double> simS, eventsPerS;
    sim::ReplicatedControllerResult simulated;
    auto simRep = [&]() {
        Span span("sim.controller_replicated");
        Clock::time_point t0 = Clock::now();
        simulated = sim::simulateControllerReplicated(
            catalog, topo, model::SupervisorPolicy::Required, simConfig,
            replication);
        simS.push_back(secondsSince(t0));
        eventsPerS.push_back(static_cast<double>(simulated.events) /
                             simS.back());
    };
    auto round = [&]() {
        for (std::size_t r = 0; r < kRepetitionsPerRound; ++r) {
            referenceWindow();
            sweepRep(false);
            if (config.trace)
                sweepRep(true);
            referenceWindow();
            simRep();
            std::unique_ptr<server::Server> spare = timedSetup("");
            stopServer(spare);
        }
    };

    // Ladder: a rung's p99 is the lowest over its probes. A stall of
    // the host only ever raises a probe's p99, so a rung that met the
    // limit once stays met, and one that missed it in a stalled probe
    // gets another chance on the second look.
    std::map<std::size_t, double> rungBest;
    std::string rungNotes;
    auto probe = [&](std::size_t i) {
        double rate = profile.ladder[i];
        if (i == profile.referenceRung) {
            // The reference windows so far are this rung's probe.
            char buffer[120];
            std::snprintf(buffer, sizeof(buffer),
                          "    rung %2zu  %8.1f q/s  p99 %10.3f ms  lines %6zu  "
                          "(reference windows)\n",
                          i, rate, percentile(reference.latencyMs, 0.99),
                          reference.latencyMs.size());
            rungNotes += buffer;
            return percentile(reference.latencyMs, 0.99);
        }
        // Longer at low rates, so the rung's p99 has lines behind it.
        double seconds = std::clamp(
            kLinesPerRung * stream.queriesPerLine() / rate, kRungShare * S,
            2.5 * kRungShare * S);
        JudgedRung judged =
            openLoop("loadgen.rung", rungCursor, rate, seconds);
        double p99 = percentile(judged.latencyMs, 0.99);
        auto best = rungBest.emplace(i, p99).first;
        best->second = std::min(best->second, p99);
        char buffer[160];
        std::snprintf(buffer, sizeof(buffer),
                      "    rung %2zu  %8.1f q/s  p99 %10.3f ms  lines %6zu  "
                      "late p99 %.3f ms\n",
                      i, rate, p99, judged.latencyMs.size(),
                      percentile(judged.lateMs, 0.99));
        rungNotes += buffer;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return best->second;
    };

    round();
    SustainedRate sustained = findSustainedRate(
        profile.ladder, profile.limitMs, probe, profile.referenceRung,
        kRungsPerDoubling);
    round();
    if (!sustained.cappedHigh && !sustained.cappedLow) {
        // A second look, later in the run: from the lower bracketing
        // rung, probe again and walk up a rung at a time while the
        // limit is met.
        sustained = findSustainedRate(profile.ladder, profile.limitMs, probe,
                                      sustained.lo.index, 1);
    }
    round();

    result.endToEnd["sustained_qps"] = sustained.qps;
    result.notes["ladder"] = rungNotes;
    result.notes["sustained_qps"] =
        sustained.cappedHigh
            ? "every rung met the limit; floor at the top rung"
            : (sustained.cappedLow
                   ? "the lowest rung missed the limit; extrapolated"
                   : "between rungs " + std::to_string(sustained.lo.index) +
                         " and " + std::to_string(sustained.hi.index));

    std::size_t n = reference.latencyMs.size();
    result.endToEnd["p50_ms"] = median(windowP50);
    result.endToEnd["p99_ms"] = median(pairP99);
    double lateP99 = percentile(reference.lateMs, 0.99);
    std::size_t perPair = n / pairP99.size();
    char refNote[240];
    std::snprintf(refNote, sizeof(refNote),
                  "median of %zu window pairs of ~%zu lines at %.0f q/s (%zu "
                  "beyond p99 each); pooled p99 %.3f ms; generator late p99 "
                  "%.3f ms; pair p99s (ms):",
                  pairP99.size(), perPair, profile.referenceQps(),
                  samplesBeyond(perPair, 0.99),
                  percentile(reference.latencyMs, 0.99), lateP99);
    result.notes["p99_ms"] = refNote + pairNotes;
    result.notes["p50_ms"] = windowNotes;
    // Lateness of half the latency budget would let the generator,
    // not the server, decide whether the limit is met.
    const double lateAllowanceMs = profile.limitMs / 2.0;
    if (generatorFellBehind(lateP99, lateAllowanceMs)) {
        result.invalidReason =
            "load generator fell behind at the reference rate: late p99 " +
            std::to_string(lateP99) + " ms > " +
            std::to_string(lateAllowanceMs) + " ms";
    }
    result.endToEnd["setup_s"] = median(setups);
    result.endToEnd["sweep_s"] = median(untracedS);
    result.endToEnd["sim_s"] = median(simS);
    auto listed = [](const std::vector<double> &values) {
        std::string text = "median of";
        for (double v : values)
            text.append(" ").append(std::to_string(v));
        return text;
    };
    result.notes["sweep_s"] = listed(untracedS);
    result.notes["sim_s"] = listed(simS);
    result.notes["setup_s"] = listed(setups);

    model::SwParams staticParams = sim::staticParamsFor(simConfig);
    ModelKey cpKey{"opencontrail", "large", 3, true, true};
    ModelKey dpKey{"opencontrail", "large", 3, true, false};
    double servedCp = servedAvailability(srv->port(), cpKey, staticParams);
    double servedDp = servedAvailability(srv->port(), dpKey, staticParams);
    result.check(simulated.cpAvailability.brackets(servedCp),
                 "simulated CP CI does not bracket served CP " +
                     std::to_string(servedCp));
    result.check(simulated.dpAvailability.brackets(servedDp),
                 "simulated DP CI does not bracket served DP " +
                     std::to_string(servedDp));

    stopServer(srv);
    result.endToEnd["peak_rss_mb"] = peakRssMb();

    // Per-layer numbers. Counts come from the measured run itself;
    // layer times from the traced extras below.
    auto &layer = result.perLayer;
    double acquires =
        static_cast<double>(tally.hit + tally.miss + tally.coalesced);
    layer["server.cache_hit_ratio"] =
        acquires > 0 ? static_cast<double>(tally.hit + tally.coalesced) /
                           acquires
                     : 0.0;
    layer["server.coalesced"] = static_cast<double>(tally.coalesced);
    layer["loadgen.late_ms_p99"] = lateP99;
    layer["loadgen.lines_sent"] = static_cast<double>(linesSent);
    layer["loadgen.lines_ok"] = static_cast<double>(linesOk);
    layer["loadgen.lines_failed"] = static_cast<double>(linesFailed);
    {
        std::vector<double> pps, imbalance;
        for (const SweepRep &rep : sweeps) {
            pps.push_back(rep.pointsPerS);
            imbalance.push_back(rep.imbalance);
        }
        layer["analysis.points_per_s"] = median(pps);
        layer["analysis.worker_imbalance"] = median(imbalance);
    }
    layer["sim.events"] = static_cast<double>(simulated.events);
    layer["sim.events_per_s"] = median(eventsPerS);
    std::size_t highWater = 0;
    for (const sim::ControllerSimResult &rep : simulated.perReplication)
        highWater = std::max(highWater, rep.queueHighWater);
    layer["sim.queue_high_water"] = static_cast<double>(highWater);

    if (!config.trace)
        return result;

    if (!untracedS.empty() && !tracedS.empty()) {
        double off = median(untracedS), on = median(tracedS);
        char buffer[160];
        std::snprintf(buffer, sizeof(buffer),
                      "in-process sweep %.4f s traced vs %.4f s untraced: "
                      "%+.4f s (%+.1f%%)",
                      on, off, on - off, 100.0 * (on - off) / off);
        result.notes["trace_overhead"] = buffer;
    }

    // Queue wait from the server's request log.
    {
        std::vector<double> waits;
        std::ifstream log(requestLog);
        for (std::string line; std::getline(log, line);) {
            json::Value record = json::parse(line);
            std::string kind = record.stringOr("kind", "");
            if (kind == "query" || kind == "batch")
                waits.push_back(record.numberOr("queue_wait_ms", 0.0));
        }
        layer["server.queue_wait_ms.p50"] = median(waits);
        layer["server.queue_wait_ms.p99"] = percentile(waits, 0.99);
    }

    // Serial replay of the stream through each server layer, on a cold
    // cache: the first line of each key times a miss (compile through
    // the cache) in query-hot too, the rest hits.
    {
        LayerSamples samples;
        server::ModelCache cache(profile.cacheCapacity);
        bdd::ProbabilityScratch serialScratch;
        Span phase("replay.serial");
        for (std::size_t i = 0; i < profile.sweepLines; ++i) {
            Answer answer = answerLine(stream, i, cache, serialScratch,
                                       phase.id(), &samples);
            result.check(answer.availabilities.size() ==
                             stream.lines[i].items.size(),
                         "serial replay line " + std::to_string(i));
        }
        auto mean = [](const std::vector<double> &v) {
            double sum = 0.0;
            for (double x : v)
                sum += x;
            return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
        };
        layer["server.parse_us"] = mean(samples.parseMs) * 1e3;
        layer["server.reply_encode_us"] = mean(samples.encodeMs) * 1e3;
        layer["server.acquire_hit_us"] = mean(samples.acquireHitMs) * 1e3;
        layer["server.acquire_miss_ms"] = mean(samples.acquireMissMs);
        double evals = static_cast<double>(std::max<std::size_t>(
            samples.evals, 1));
        layer["model.eval_us"] = samples.evalMs * 1e3 / evals;
        layer["model.eval_ns_per_node"] =
            samples.evalNodes > 0 ? samples.evalMs * 1e6 / samples.evalNodes
                                  : 0.0;
    }

    // Every key built directly: RBD construction, then BDD compile.
    std::vector<KeyToBuild> keys;
    for (const ModelKey &key : stream.keys) {
        keys.push_back({key.catalogModel(), key.topologyModel(), key.policy(),
                        key.plane(), key.order()});
    }
    measureKeyBuilds(keys, layer);
    measureReplications(catalog, topo, simConfig, simulated, result);
    return result;
}

} // namespace perfbench
