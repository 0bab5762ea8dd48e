#include "loadgen.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <thread>

#include "spans.hh"

namespace perfbench
{

namespace
{

int
connectLoopback(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("loadgen: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        throw std::runtime_error("loadgen: connect() failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/**
 * Drive one connection through its share of a rung. Returns false
 * when the connection is out of step (closed, or replies still owed
 * at the drain deadline) and must be reopened.
 */
bool
driveConnection(int fd, const std::vector<std::size_t> &mine,
                const std::vector<std::string> &texts,
                const std::vector<Clock::time_point> &due,
                std::vector<LineOutcome> &outcomes,
                Clock::time_point drainDeadline)
{
    std::deque<std::size_t> inflight;
    std::string out;
    std::size_t outOffset = 0;
    std::string in;
    char buffer[65536];
    std::size_t next = 0;

    for (;;) {
        Clock::time_point now = Clock::now();
        while (next < mine.size() && due[mine[next]] <= now) {
            std::size_t k = mine[next++];
            outcomes[k].lateMs = msBetween(due[k], now);
            out += texts[k];
            inflight.push_back(k);
        }
        if (outOffset < out.size()) {
            ssize_t n = ::send(fd, out.data() + outOffset,
                               out.size() - outOffset,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n > 0) {
                outOffset += static_cast<std::size_t>(n);
                if (outOffset == out.size()) {
                    out.clear();
                    outOffset = 0;
                }
            } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR) {
                return false;
            }
        }
        if (next == mine.size() && inflight.empty())
            return true;
        if (now >= drainDeadline)
            return false;

        Clock::time_point wake =
            next < mine.size() ? due[mine[next]] : drainDeadline;
        auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
            wake - now);
        if (wait.count() < 0)
            wait = std::chrono::nanoseconds(0);
        timespec ts{static_cast<time_t>(wait.count() / 1000000000),
                    static_cast<long>(wait.count() % 1000000000)};
        pollfd pfd{fd, static_cast<short>(
                           POLLIN | (outOffset < out.size() ? POLLOUT : 0)),
                   0};
        int ready = ::ppoll(&pfd, 1, &ts, nullptr);
        if (ready < 0 && errno != EINTR)
            return false;
        if (ready <= 0 || !(pfd.revents & (POLLIN | POLLHUP | POLLERR)))
            continue;
        ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
        if (n == 0)
            return false;
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                continue;
            return false;
        }
        Clock::time_point received = Clock::now();
        in.append(buffer, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t pos; (pos = in.find('\n', start)) !=
                              std::string::npos;
             start = pos + 1) {
            if (inflight.empty())
                return false; // a reply nobody asked for
            std::size_t k = inflight.front();
            inflight.pop_front();
            outcomes[k].reply = in.substr(start, pos - start);
            outcomes[k].answered = true;
            outcomes[k].latencyMs = msBetween(due[k], received);
        }
        in.erase(0, start);
    }
}

} // anonymous namespace

LoadGenerator::LoadGenerator(std::uint16_t port, std::size_t connections)
    : port_(port), fds_(connections, -1)
{
    for (std::size_t c = 0; c < connections; ++c)
        reconnect(c);
}

LoadGenerator::~LoadGenerator()
{
    for (int fd : fds_) {
        if (fd >= 0)
            ::close(fd);
    }
}

void
LoadGenerator::reconnect(std::size_t c)
{
    if (fds_[c] >= 0)
        ::close(fds_[c]);
    fds_[c] = -1;
    fds_[c] = connectLoopback(port_);
}

std::vector<LineOutcome>
LoadGenerator::run(const QueryStream &stream, std::size_t firstLine,
                   double rateQps, double durationS, double drainS)
{
    std::vector<LineOutcome> lines;

    // Lay out the schedule before the clock starts: which stream line
    // each rung line is, its text, and its offset from the start.
    std::vector<std::string> texts;
    std::vector<double> offsetsS;
    double queries = 0.0;
    for (std::size_t k = 0;; ++k) {
        double offset = queries / rateQps;
        if (offset >= durationS)
            break;
        std::size_t s = (firstLine + k) % stream.lines.size();
        LineOutcome outcome;
        outcome.streamIndex = s;
        lines.push_back(outcome);
        texts.push_back(stream.lineWithId(s, k) + "\n");
        offsetsS.push_back(offset);
        queries += static_cast<double>(stream.lines[s].items.size());
    }

    std::size_t connections = fds_.size();
    std::vector<std::vector<std::size_t>> owned(connections);
    for (std::size_t k = 0; k < lines.size(); ++k)
        owned[k % connections].push_back(k);

    // Start a little in the future so every thread is waiting when
    // the first line falls due.
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<Clock::time_point> due(lines.size());
    for (std::size_t k = 0; k < due.size(); ++k)
        due[k] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(offsetsS[k]));
    Clock::time_point drainDeadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(durationS + drainS));

    std::vector<char> inStep(connections, 1);
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < connections; ++c) {
            threads.emplace_back([&, c] {
                inStep[c] = driveConnection(fds_[c], owned[c], texts, due,
                                            lines, drainDeadline)
                                ? 1
                                : 0;
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    for (std::size_t c = 0; c < connections; ++c) {
        if (!inStep[c])
            reconnect(c);
    }
    return lines;
}

} // namespace perfbench
