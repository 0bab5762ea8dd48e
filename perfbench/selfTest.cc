/**
 * @file
 * Self-tests of the benchmark's own statistics: percentiles and their
 * support, the interpolated sustained rate on synthetic ladders, self
 * time from nested spans, the late-generator verdict, and seeded
 * input determinism. Run with `sdnav_perfbench --self-test`.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "inputs.hh"
#include "spans.hh"
#include "stats.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

bool
near(double a, double b, double rtol)
{
    return std::fabs(a - b) <= rtol * std::max(std::fabs(a), std::fabs(b));
}

void
testPercentiles()
{
    std::vector<double> samples;
    for (int i = 1000; i >= 1; --i)
        samples.push_back(i);
    expect(percentile(samples, 0.99) == 990.0, "p99 of 1..1000 is 990");
    expect(median(samples) == 500.0, "median of 1..1000 is 500");
    expect(samplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
    expect(percentileSupported(1000, 0.99), "p99 of 1000 is supported");
    expect(!percentileSupported(999, 0.99),
           "p99 of 999 has 9 beyond: not supported");
    expect(percentileSupported(2000, 0.995) &&
               !percentileSupported(1999, 0.995),
           "p99.5 needs 2000 samples");
    samples.push_back(std::numeric_limits<double>::infinity());
    expect(std::isinf(percentile(samples, 1.0)),
           "a failed line (infinite latency) is the worst sample");
    expect(percentile({}, 0.99) == 0.0, "empty sample reads 0");
}

/** M/M/1-like curve: p99 = base / (1 - rate/capacity), inf past it. */
double
syntheticP99(double rate, double capacity)
{
    return rate >= capacity ? std::numeric_limits<double>::infinity()
                            : 2.0 / (1.0 - rate / capacity);
}

void
testSustainedRate()
{
    std::vector<double> ladder = geometricLadder(50.0, 37, 4);
    expect(near(ladder.back(), 25600.0, 1e-12) && ladder[8] == 200.0,
           "ladder 50 * 2^(k/4) reaches 25600 with rung 8 at 200");

    // Limit 25 ms on capacity 1000: the curve crosses at 920 q/s.
    std::size_t probes = 0;
    SustainedRate s = findSustainedRate(
        ladder, 25.0,
        [&](std::size_t i) {
            ++probes;
            return syntheticP99(ladder[i], 1000.0);
        },
        8, 4);
    expect(!s.cappedHigh && !s.cappedLow, "crossing bracketed");
    expect(s.hi.index == s.lo.index + 1, "bracketing rungs are adjacent");
    expect(s.lo.p99Ms <= 25.0 && s.hi.p99Ms > 25.0,
           "lo meets the limit, hi misses it");
    expect(s.qps >= s.lo.rate && s.qps <= s.hi.rate,
           "interpolated rate lies between the rungs");
    expect(probes <= 6, "the search probes at most 6 of 37 rungs (" +
                            std::to_string(probes) + ")");
    probes = 0;
    SustainedRate fast = findSustainedRate(
        ladder, 25.0,
        [&](std::size_t i) {
            ++probes;
            return syntheticP99(ladder[i], 10000.0);
        },
        8, 4);
    expect(fast.qps > 8000.0 && fast.qps < 9500.0 && probes <= 9,
           "10x the capacity is found on the same ladder (" +
               std::to_string(fast.qps) + " q/s, " +
               std::to_string(probes) + " probes)");
    SustainedRate slow = findSustainedRate(
        ladder, 25.0,
        [&](std::size_t i) { return syntheticP99(ladder[i], 150.0); }, 8,
        4);
    expect(!slow.cappedLow && slow.qps > 100.0 && slow.qps < 150.0,
           "a start rung above capacity gallops down (" +
               std::to_string(slow.qps) + " q/s)");

    // On a finite curve the interpolation tracks the true crossing.
    RungMeasurement lo{0, 800.0, syntheticP99(800.0, 1000.0)};
    RungMeasurement hi{1, 951.0, syntheticP99(951.0, 1000.0)};
    double q = interpolateCrossing(lo, hi, 25.0);
    expect(q > 880.0 && q < 951.0,
           "log-log interpolation near the true 920 (" + std::to_string(q) +
               ")");
    // A re-measured pair that no longer brackets the limit moves the
    // answer past the rung smoothly, never by more than one spacing.
    RungMeasurement bothMiss{0, 800.0, 30.0}, steeper{1, 951.0, 60.0};
    double below = interpolateCrossing(bothMiss, steeper, 25.0);
    expect(below < 800.0 && below > 800.0 * 800.0 / 951.0,
           "both rungs miss: extrapolated below lo, within a rung (" +
               std::to_string(below) + ")");
    RungMeasurement slightly{0, 800.0, 26.0};
    expect(interpolateCrossing(slightly, steeper, 25.0) > 780.0,
           "lo just over the limit: just under lo, not a rung down");

    // Continuity: sliding capacity 1% at a time never jumps a rung.
    double previous = 0.0;
    double worstStep = 0.0;
    bool monotone = true;
    for (double capacity = 900.0; capacity <= 1100.0; capacity += 10.0) {
        SustainedRate r = findSustainedRate(
            ladder, 25.0,
            [&](std::size_t i) {
                return std::min(syntheticP99(ladder[i], capacity), 1e6);
            },
            8, 4);
        if (previous > 0.0) {
            monotone = monotone && r.qps >= previous;
            worstStep = std::max(worstStep, r.qps / previous - 1.0);
        }
        previous = r.qps;
    }
    expect(monotone, "sustained rate rises with capacity");
    expect(worstStep < 0.10,
           "a 1% capacity step moves the result < 10% (a rung is 19%): " +
               std::to_string(worstStep));

    SustainedRate high = findSustainedRate(
        ladder, 25.0, [&](std::size_t) { return 1.0; }, 8, 4);
    expect(high.cappedHigh && high.qps == ladder.back(),
           "all rungs pass: capped at the top rung");
    SustainedRate low = findSustainedRate(
        ladder, 25.0, [&](std::size_t) { return 100.0; }, 8, 4);
    expect(low.cappedLow && low.qps < ladder.front(),
           "all rungs fail: below the ladder");
}

SpanRecord
span(std::uint64_t id, std::uint64_t parent, double startMs, double endMs,
     const char *name)
{
    SpanRecord s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.startNs = static_cast<std::int64_t>(startMs * 1e6);
    s.endNs = static_cast<std::int64_t>(endMs * 1e6);
    return s;
}

void
testSelfTime()
{
    // line [0,100] with children parse [10,30] and eval [20,50] (on
    // another thread, overlapping) and encode [90,120] (clipped);
    // eval has a child [25,35] that must not count for line.
    std::vector<SpanRecord> spans{
        span(1, 0, 0, 100, "line"),   span(2, 1, 10, 30, "parse"),
        span(3, 1, 20, 50, "eval"),   span(4, 1, 90, 120, "encode"),
        span(5, 3, 25, 35, "inner"),
    };
    std::vector<double> self = selfTimesMs(spans);
    expect(near(self[0], 50.0, 1e-9),
           "self = 100 - union{[10,50],[90,100]} = 50 ms");
    expect(near(self[2], 20.0, 1e-9), "eval self = 30 - 10 = 20 ms");
    expect(near(self[4], 10.0, 1e-9), "a leaf's self time is its duration");

    std::vector<LayerRow> rows = layerTable(
        {span(1, 0, 0, 10, "a"), span(2, 1, 0, 4, "b"),
         span(3, 0, 20, 30, "a"), span(4, 3, 20, 26, "b")});
    expect(rows.size() == 2 && rows[0].name == "a" && rows[0].count == 2 &&
               near(rows[0].totalMs, 20.0, 1e-9) &&
               near(rows[0].selfMs, 10.0, 1e-9) &&
               near(rows[1].selfMs, 10.0, 1e-9),
           "layer table sums count, total and self per name");

    // Live spans nest by thread and record their parent.
    SpanRecorder &recorder = SpanRecorder::global();
    recorder.setEnabled(true);
    std::uint64_t outerId = 0;
    {
        Span outer("selftest.outer");
        outerId = outer.id();
        Span inner("selftest.inner");
    }
    recorder.setEnabled(false);
    { Span ignored("selftest.disabled"); }
    bool nested = false, disabled = true;
    for (const SpanRecord &s : recorder.spans()) {
        if (s.name == "selftest.inner")
            nested = s.parent == outerId;
        if (s.name == "selftest.disabled")
            disabled = false;
    }
    expect(nested, "a span opened inside another names it as parent");
    expect(disabled, "a disabled recorder records nothing");
}

void
testLateGenerator()
{
    // The verdict runs on the p99 of per-line lateness.
    std::vector<double> late(1000, 0.05);
    expect(!generatorFellBehind(percentile(late, 0.99), 2.5),
           "on-time generator: run valid");
    for (int i = 0; i < 20; ++i)
        late[static_cast<std::size_t>(i)] = 8.0;
    expect(generatorFellBehind(percentile(late, 0.99), 2.5),
           "2% of lines 8 ms late against a 2.5 ms allowance: invalid");
    for (int i = 0; i < 20; ++i)
        late[static_cast<std::size_t>(i)] = i < 5 ? 8.0 : 0.05;
    expect(!generatorFellBehind(percentile(late, 0.99), 2.5),
           "0.5% of lines late is inside p99: valid");
}

void
testInputs()
{
    QueryStream a = hotStream(7, 64), b = hotStream(7, 64),
                c = hotStream(8, 64);
    expect(a.digest == b.digest && a.lines[5].text == b.lines[5].text,
           "same seed, same stream");
    expect(a.digest != c.digest, "another seed, another stream");
    expect(a.lines[15].items.size() == kBatchSize &&
               a.lines[14].items.size() == 1,
           "one line in sixteen is a batch");
    QueryStream churn = churnStream(7, 64);
    bool rotatingMisses = churn.keys.size() - churn.resident.size() >
                          kChurnCacheCapacity - churn.resident.size();
    expect(rotatingMisses, "churn rotates through more keys than fit");
    // Replay a long churn stream through an LRU of the server's size:
    // no rotating line may hit, and every cycle of rotating lines uses
    // each rotating key once.
    QueryStream longChurn = churnStream(7, 4096);
    std::vector<std::size_t> lru; // most recent at the back
    std::vector<std::size_t> rotated;
    bool allMiss = true, batchesHot = true;
    for (const RequestLine &line : longChurn.lines) {
        std::size_t key = line.items.front().key;
        auto at = std::find(lru.begin(), lru.end(), key);
        bool resident = std::find(longChurn.resident.begin(),
                                  longChurn.resident.end(),
                                  key) != longChurn.resident.end();
        if (!resident) {
            allMiss = allMiss && at == lru.end();
            rotated.push_back(key);
        }
        batchesHot = batchesHot && (resident || line.items.size() == 1);
        if (at != lru.end())
            lru.erase(at);
        lru.push_back(key);
        if (lru.size() > kChurnCacheCapacity)
            lru.erase(lru.begin());
    }
    expect(allMiss, "every rotating churn line misses an LRU of the "
                    "cache's size");
    expect(batchesHot, "churn batches fall on hot-set lines");
    std::size_t cycle = longChurn.keys.size() - longChurn.resident.size();
    bool balanced = rotated.size() >= cycle;
    for (std::size_t start = 0; start + cycle <= rotated.size();
         start += cycle) {
        std::vector<std::size_t> keys(rotated.begin() + start,
                                      rotated.begin() + start + cycle);
        std::sort(keys.begin(), keys.end());
        balanced = balanced &&
                   std::adjacent_find(keys.begin(), keys.end()) == keys.end();
    }
    expect(balanced, "each churn cycle uses every rotating key once");
    bool reordered = false;
    for (std::size_t i = cycle; i < 2 * cycle; ++i)
        reordered = reordered || rotated[i] != rotated[i - cycle];
    expect(reordered, "churn cycles change order");
    expect(offlineInputs(3, 16, 5).digest == offlineInputs(3, 16, 5).digest &&
               offlineInputs(3, 16, 5).digest != offlineInputs(4, 16, 5).digest,
           "offline grid digest follows the seed");
}

} // anonymous namespace

int
runSelfTests()
{
    std::printf("percentiles:\n");
    testPercentiles();
    std::printf("sustained rate:\n");
    testSustainedRate();
    std::printf("self time:\n");
    testSelfTime();
    std::printf("late generator:\n");
    testLateGenerator();
    std::printf("inputs:\n");
    testInputs();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures;
}

} // namespace perfbench
