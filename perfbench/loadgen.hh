/**
 * @file
 * Open-loop load generator for sdnavd.
 *
 * Lines are due on a fixed schedule: line k is due when the queries
 * before it, at the offered rate, have taken their share of time, so
 * the offered query rate is exact whatever the batch mix. The lines
 * are dealt round-robin over the connections, one generator thread
 * per connection; a thread sends each line when it falls due whether
 * or not earlier replies have come back (independent users), and
 * times each line from its due time, so a stall is charged to every
 * line queued behind it. How late the thread itself handed a line to
 * the socket is recorded separately, to tell a slow generator from a
 * slow server.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "inputs.hh"

namespace perfbench
{

/** What happened to one line of a rung. */
struct LineOutcome
{
    std::size_t streamIndex = 0;

    /** Due time to reply; infinity when no reply came. */
    double latencyMs = std::numeric_limits<double>::infinity();

    /** Due time to hand-off to the socket. */
    double lateMs = 0.0;

    std::string reply;
    bool answered = false;
};

class LoadGenerator
{
  public:
    /** Connect `connections` sockets to 127.0.0.1:port. */
    LoadGenerator(std::uint16_t port, std::size_t connections);
    ~LoadGenerator();

    LoadGenerator(const LoadGenerator &) = delete;
    LoadGenerator &operator=(const LoadGenerator &) = delete;

    /**
     * Offer `rateQps` queries per second for `durationS` seconds,
     * taking lines from the stream in order from `firstLine`
     * (wrapping), then wait up
     * to `drainS` seconds for the outstanding replies. Connections
     * that did not drain are reopened before returning. Returns one
     * outcome per line sent, in schedule order.
     */
    std::vector<LineOutcome> run(const QueryStream &stream,
                                 std::size_t firstLine, double rateQps,
                                 double durationS, double drainS);

  private:
    void reconnect(std::size_t c);

    std::uint16_t port_;
    std::vector<int> fds_;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
