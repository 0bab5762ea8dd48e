#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench
{

namespace
{

/** 1-based nearest rank of the q percentile among n samples. */
std::size_t
nearestRank(std::size_t n, double q)
{
    double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1,
                                   n);
}

} // anonymous namespace

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::size_t k = nearestRank(samples.size(), q) - 1;
    std::nth_element(samples.begin(), samples.begin() + k,
                     samples.end());
    return samples[k];
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

bool
percentileSupported(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

double
interpolateCrossing(const RungMeasurement &lo, const RungMeasurement &hi,
                    double limitMs)
{
    // Latency rises steeply near saturation; in log-log space the
    // segment between two rungs is close to straight, so a small
    // change in either p99 moves the answer a little, never a rung.
    // A re-measured pair may no longer bracket the limit; the line
    // through it is then followed up to one rung beyond either end, so
    // the result still moves smoothly instead of sticking to a rung.
    double floorMs = 1e-3;
    double x0 = std::log(lo.rate), x1 = std::log(hi.rate);
    double y0 = std::log(std::max(lo.p99Ms, floorMs));
    double y1 = std::log(std::max(hi.p99Ms, floorMs));
    double y = std::log(limitMs);
    if (y1 <= y0) {
        // p99 did not rise between the rungs: no slope to follow.
        if (y1 > y)
            return lo.rate;
        return y0 <= y ? hi.rate : std::sqrt(lo.rate * hi.rate);
    }
    double t = std::clamp((y - y0) / (y1 - y0), -1.0, 2.0);
    return std::exp(x0 + t * (x1 - x0));
}

SustainedRate
findSustainedRate(const std::vector<double> &ladder, double limitMs,
                  const std::function<double(std::size_t)> &probe,
                  std::size_t start, std::size_t stride)
{
    SustainedRate result;
    if (ladder.empty())
        return result;
    const long n = static_cast<long>(ladder.size());
    std::vector<double> p99(ladder.size(), -1.0);
    auto meets = [&](long i) {
        std::size_t k = static_cast<std::size_t>(i);
        p99[k] = probe(k);
        return p99[k] <= limitMs;
    };
    // Invariant once bracketed: rung lo met the limit (or lo == -1),
    // rung hi missed it (or hi == n).
    long lo = -1, hi = n;
    long step = static_cast<long>(std::max<std::size_t>(stride, 1));
    long i = std::min(static_cast<long>(start), n - 1);
    if (meets(i)) {
        lo = i;
        for (i = lo + step; i < n; i += step) {
            if (!meets(i)) {
                hi = i;
                break;
            }
            lo = i;
        }
        if (hi == n && lo < n - 1) {
            if (meets(n - 1))
                lo = n - 1;
            else
                hi = n - 1;
        }
    } else {
        hi = i;
        for (i = hi - step; i >= 0; i -= step) {
            if (meets(i)) {
                lo = i;
                break;
            }
            hi = i;
        }
        if (lo == -1 && hi > 0) {
            if (meets(0))
                lo = 0;
            else
                hi = 0;
        }
    }
    while (hi - lo > 1) {
        long mid = lo + (hi - lo) / 2;
        if (meets(mid))
            lo = mid;
        else
            hi = mid;
    }
    auto rung = [&](long k) {
        std::size_t u = static_cast<std::size_t>(k);
        return RungMeasurement{u, ladder[u], p99[u]};
    };
    if (hi == n) {
        result.cappedHigh = true;
        result.lo = result.hi = rung(lo);
        result.qps = ladder.back();
        return result;
    }
    if (lo < 0) {
        // Below the ladder: scale the lowest rung by how far its p99
        // overshot the limit.
        result.cappedLow = true;
        result.lo = result.hi = rung(hi);
        result.qps = ladder.front() *
                     std::min(1.0, limitMs / std::max(p99[0], 1e-9));
        return result;
    }
    result.lo = rung(lo);
    result.hi = rung(hi);
    result.qps = interpolateCrossing(result.lo, result.hi, limitMs);
    return result;
}

std::vector<double>
geometricLadder(double lo, std::size_t n, int stepsPerDoubling)
{
    std::vector<double> ladder(n);
    for (std::size_t k = 0; k < n; ++k)
        ladder[k] = lo * std::exp2(static_cast<double>(k) /
                                   stepsPerDoubling);
    return ladder;
}

bool
generatorFellBehind(double lateP99Ms, double allowanceMs)
{
    return lateP99Ms > allowanceMs;
}

void
Digest::addBytes(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        state_ ^= bytes[i];
        state_ *= 1099511628211ULL;
    }
}

void
Digest::add(const std::string &bytes)
{
    add(static_cast<std::uint64_t>(bytes.size()));
    addBytes(bytes.data(), bytes.size());
}

void
Digest::add(double value)
{
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &value, sizeof(double));
    addBytes(bytes, sizeof(bytes));
}

void
Digest::add(std::uint64_t value)
{
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    addBytes(bytes, sizeof(bytes));
}

std::string
Digest::hex() const
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(state_));
    return buffer;
}

} // namespace perfbench
