#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/json.hh"

namespace perfbench
{

namespace
{

std::mutex spansMutex;
std::vector<SpanRecord> finishedSpans; // guarded by spansMutex
std::atomic<std::uint64_t> spanIds{0};
thread_local std::uint64_t currentSpan = 0;

std::uint64_t
threadNumber()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           1000000;
}

} // anonymous namespace

SpanRecorder &
SpanRecorder::global()
{
    static SpanRecorder recorder;
    return recorder;
}

std::uint64_t
SpanRecorder::nextId()
{
    return spanIds.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
SpanRecorder::finish(SpanRecord record)
{
    std::lock_guard<std::mutex> lock(spansMutex);
    finishedSpans.push_back(std::move(record));
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(spansMutex);
    return finishedSpans;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    sdnav::json::Value events = sdnav::json::Value::makeArray();
    for (const SpanRecord &span : spans()) {
        sdnav::json::Value event = sdnav::json::Value::makeObject();
        event.set("name", span.name);
        event.set("ph", "X");
        event.set("pid", 1);
        event.set("tid", static_cast<double>(span.thread));
        event.set("ts", static_cast<double>(span.startNs) * 1e-3);
        event.set("dur", static_cast<double>(span.endNs - span.startNs) *
                             1e-3);
        sdnav::json::Value args = sdnav::json::Value::makeObject();
        args.set("id", static_cast<double>(span.id));
        args.set("parent", static_cast<double>(span.parent));
        event.set("args", std::move(args));
        events.push(std::move(event));
    }
    sdnav::json::Value doc = sdnav::json::Value::makeObject();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.dump() << "\n";
}

Span::Span(const char *name)
    : Span(name, currentSpan)
{
}

Span::Span(const char *name, std::uint64_t parent)
    : active_(SpanRecorder::global().enabled())
{
    if (!active_)
        return;
    SpanRecorder &recorder = SpanRecorder::global();
    record_.name = name;
    record_.id = recorder.nextId();
    record_.parent = parent;
    record_.thread = threadNumber();
    savedCurrent_ = currentSpan;
    currentSpan = record_.id;
    record_.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - recorder.origin_)
                          .count();
}

Span::~Span()
{
    if (!active_)
        return;
    SpanRecorder &recorder = SpanRecorder::global();
    record_.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - recorder.origin_)
                        .count();
    currentSpan = savedCurrent_;
    recorder.finish(std::move(record_));
}

std::vector<double>
selfTimesMs(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> byId;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byId[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const SpanRecord &span : spans) {
        auto it = byId.find(span.parent);
        if (span.parent != 0 && it != byId.end())
            children[it->second].emplace_back(span.startNs, span.endNs);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &span = spans[i];
        auto &intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        // Union of the children's intervals, clipped to the parent.
        std::int64_t covered = 0;
        std::int64_t runStart = 0, runEnd = 0;
        bool open = false;
        for (auto [start, end] : intervals) {
            start = std::max(start, span.startNs);
            end = std::min(end, span.endNs);
            if (end <= start)
                continue;
            if (open && start <= runEnd) {
                runEnd = std::max(runEnd, end);
                continue;
            }
            if (open)
                covered += runEnd - runStart;
            runStart = start;
            runEnd = end;
            open = true;
        }
        if (open)
            covered += runEnd - runStart;
        self[i] = static_cast<double>(span.endNs - span.startNs - covered) *
                  1e-6;
    }
    return self;
}

std::vector<LayerRow>
layerTable(const std::vector<SpanRecord> &spans)
{
    std::vector<double> self = selfTimesMs(spans);
    std::vector<LayerRow> rows;
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto [it, inserted] = index.emplace(spans[i].name, rows.size());
        if (inserted)
            rows.push_back(LayerRow{spans[i].name, 0, 0.0, 0.0});
        LayerRow &row = rows[it->second];
        ++row.count;
        row.totalMs += spans[i].durationMs();
        row.selfMs += self[i];
    }
    return rows;
}

} // namespace perfbench
