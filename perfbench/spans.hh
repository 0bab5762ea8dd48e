/**
 * @file
 * Spans recorded by the benchmark around its calls into each layer.
 *
 * A span has a name, a start and an end, the thread that ran it, and
 * the span that caused it (its parent). Spans opened on one thread
 * nest automatically; work handed to another thread names its parent
 * explicitly. Spans stay in memory until the run writes them out, and
 * recording is off unless the run was started with --trace 1, so the
 * untraced runs that give end-to-end numbers pay one branch per span.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One finished span. Times are nanoseconds since the recorder began. */
struct SpanRecord
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; // 0 = root
    std::uint64_t thread = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double durationMs() const { return (endNs - startNs) * 1e-6; }
};

/** Per-name aggregate of a span set: count, total and self time. */
struct LayerRow
{
    std::string name;
    std::size_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children's intervals
 * (children on other threads may overlap one another).
 */
std::vector<double> selfTimesMs(const std::vector<SpanRecord> &spans);

/** Aggregate spans by name, in order of first appearance. */
std::vector<LayerRow> layerTable(const std::vector<SpanRecord> &spans);

/** Process-wide span store. */
class SpanRecorder
{
  public:
    static SpanRecorder &global();

    void setEnabled(bool enabled) { enabled_.store(enabled); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** A copy of every finished span. */
    std::vector<SpanRecord> spans() const;

    /** Write the spans as a Chrome trace_event JSON file. */
    void writeChromeTrace(const std::string &path) const;

  private:
    friend class Span;
    std::uint64_t nextId();
    void finish(SpanRecord record);

    std::atomic<bool> enabled_{false};
    Clock::time_point origin_ = Clock::now();
};

/** RAII span; records nothing while the recorder is disabled. */
class Span
{
  public:
    explicit Span(const char *name);

    /** A span caused by work on another thread. */
    Span(const char *name, std::uint64_t parent);

    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return record_.id; }

  private:
    bool active_;
    std::uint64_t savedCurrent_ = 0;
    SpanRecord record_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
