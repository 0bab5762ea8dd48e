/**
 * @file
 * The benchmark's own statistics: percentiles with their support,
 * the interpolated sustainable rate of an open-loop rate ladder, the
 * late-generator verdict, and an input digest. Every function here is
 * pure and covered by the self-tests (selfTest.cc).
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

/**
 * Nearest-rank percentile: the smallest sample with at least q of
 * the samples at or below it. q in (0, 1]; 0 for an empty sample.
 */
double percentile(std::vector<double> samples, double q);

/** Median (nearest-rank 0.5 percentile). */
double median(std::vector<double> samples);

/** Samples strictly above the nearest-rank q percentile's rank. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * True when the q percentile of n samples has at least ten samples
 * beyond it, the support a reported tail percentile needs.
 */
bool percentileSupported(std::size_t n, double q);

/** One measured rung of the rate ladder. */
struct RungMeasurement
{
    /** Index into the ladder. */
    std::size_t index = 0;

    /** Offered rate, queries per second. */
    double rate = 0.0;

    /** Line-latency p99 at that rate, milliseconds. */
    double p99Ms = 0.0;
};

/** Where the p99 latency limit was crossed on the ladder. */
struct SustainedRate
{
    /** Interpolated queries per second at which p99 == limit. */
    double qps = 0.0;

    /** The bracketing rungs (lo met the limit, hi did not). */
    RungMeasurement lo{};
    RungMeasurement hi{};

    /** Every rung still met the limit: qps is the top rung, a floor. */
    bool cappedHigh = false;

    /** Even the lowest rung missed the limit: qps is extrapolated. */
    bool cappedLow = false;
};

/**
 * The rate at which p99 reaches the limit on the line through two
 * rungs, linear in log(rate) against log(p99), lo.rate < hi.rate.
 * Between the rungs when they bracket the limit; otherwise at most
 * one rung spacing beyond the nearer one.
 */
double interpolateCrossing(const RungMeasurement &lo,
                           const RungMeasurement &hi, double limitMs);

/**
 * Find the sustained rate on a fixed, increasing ladder: probe(i)
 * runs rung i and returns its p99 in milliseconds. From rung `start`
 * the search gallops up (or down) `stride` rungs at a time until the
 * limit is bracketed, then bisects to two adjacent rungs and
 * interpolates between them. Probes O(log n) rungs, most of them near
 * the crossing, where each probe gets the most lines.
 */
SustainedRate findSustainedRate(
    const std::vector<double> &ladder, double limitMs,
    const std::function<double(std::size_t)> &probe, std::size_t start,
    std::size_t stride);

/** Geometric ladder lo * 2^(k/stepsPerDoubling), k = 0..n-1. */
std::vector<double> geometricLadder(double lo, std::size_t n,
                                    int stepsPerDoubling);

/**
 * True when the load generator fell behind its schedule: its p99
 * lateness (how long after a line's due time the generator handed it
 * to the socket) exceeds the allowance. Such a run measures the
 * generator, not the server, and is reported invalid.
 */
bool generatorFellBehind(double lateP99Ms, double allowanceMs);

/** Incremental FNV-1a 64-bit digest of the generated inputs. */
class Digest
{
  public:
    void add(const std::string &bytes);
    void add(double value);
    void add(std::uint64_t value);
    std::string hex() const;

  private:
    void addBytes(const void *data, std::size_t size);
    std::uint64_t state_ = 14695981039346656037ULL;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
