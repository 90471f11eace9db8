#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <memory>
#include <stdexcept>

namespace daemon_bench {

namespace {

constexpr std::size_t kOpenLoopSource = SIZE_MAX;
/// An exchange still open this long is a transport failure.
constexpr std::uint64_t kExchangeTimeoutNs = 60'000'000'000;
constexpr std::size_t kSendChunk = 32 * 1024;

struct Exchange {
    int fd = -1;
    std::size_t source = 0;  ///< lane index, or kOpenLoopSource
    std::size_t index = 0;   ///< request index within its source
    SpanName span = SpanName::kClientIngest;
    std::string head;
    std::string_view body;
    std::size_t sent = 0;    ///< bytes of head + body written
    bool connected = false;
    std::string in;
    Reply reply;
    std::uint64_t deadline_ns = 0;
};

/// Parse a raw `Connection: close` response; ok only when the status line
/// is well-formed and the body length equals Content-Length.
void parse_reply(const std::string& raw, Reply& reply) {
    reply.ok = false;
    reply.status = 0;
    if (raw.size() < 12 || raw.compare(0, 9, "HTTP/1.1 ") != 0) return;
    int status = 0;
    if (std::from_chars(raw.data() + 9, raw.data() + 12, status).ec != std::errc{}) return;
    const std::size_t header_end = raw.find("\r\n\r\n");
    if (header_end == std::string::npos) return;
    const std::string_view headers{raw.data(), header_end};
    const std::size_t at = headers.find("\r\nContent-Length: ");
    if (at == std::string_view::npos) return;
    std::size_t length = 0;
    const char* digits = headers.data() + at + 18;
    if (std::from_chars(digits, headers.data() + headers.size(), length).ec != std::errc{}) {
        return;
    }
    const std::size_t body_start = header_end + 4;
    if (raw.size() - body_start != length) return;
    reply.body.assign(raw, body_start, length);
    reply.status = status;
    reply.ok = true;
}

class Generator {
public:
    Generator(const LoadOptions& options, std::vector<ClosedLoop>& lanes, OpenLoop* open)
        : options_(options), lanes_(lanes), open_(open) {
        epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
        if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
        address_.sin_family = AF_INET;
        address_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        address_.sin_port = htons(options.port);
    }
    ~Generator() {
        for (auto& exchange : in_flight_) {
            if (exchange && exchange->fd >= 0) ::close(exchange->fd);
        }
        ::close(epoll_fd_);
    }
    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

    PhaseReport run() {
        PhaseReport report;
        report.peak_threads = thread_count();
        report.start_ns = now_ns();

        std::vector<std::uint64_t> due;
        if (open_ != nullptr) {
            due.reserve(open_->due_offset_ns.size());
            for (const std::uint64_t offset : open_->due_offset_ns) {
                due.push_back(report.start_ns + offset);
            }
        }
        OpenLoopQueue queue{std::move(due)};
        std::size_t open_busy = 0;

        struct LaneState {
            std::size_t next = 0;
            bool busy = false;
            std::uint64_t wake_ns = 0;
        };
        std::vector<LaneState> lane_state(lanes_.size());
        for (auto& state : lane_state) state.wake_ns = report.start_ns;

        epoll_event events[64];
        for (;;) {
            std::uint64_t now = now_ns();
            queue.admit_due(now);
            while (open_ != nullptr && open_busy < open_->slots && queue.waiting()) {
                const std::size_t i = queue.pop(now);
                ++open_busy;
                start(kOpenLoopSource, i, open_->make(i), queue.due(i), now);
            }
            for (std::size_t l = 0; l < lanes_.size(); ++l) {
                LaneState& state = lane_state[l];
                if (!state.busy && state.next < lanes_[l].count && state.wake_ns <= now) {
                    state.busy = true;
                    const std::size_t i = state.next++;
                    start(l, i, lanes_[l].make(i), 0, now_ns());
                }
            }
            report.peak_connections = std::max(report.peak_connections, live_);

            std::uint64_t wake = UINT64_MAX;
            // Wake for every due time, slot free or not, so that lateness
            // measures the generator and queue wait measures the slots.
            if (open_ != nullptr) wake = std::min(wake, queue.next_due());
            bool lanes_pending = false;
            for (std::size_t l = 0; l < lanes_.size(); ++l) {
                const LaneState& state = lane_state[l];
                if (state.busy) {
                    lanes_pending = true;
                } else if (state.next < lanes_[l].count) {
                    lanes_pending = true;
                    wake = std::min(wake, state.wake_ns);
                }
            }
            for (const auto& exchange : in_flight_) {
                // A request that failed before reaching epoll retires at once.
                wake = std::min(wake, exchange->fd < 0 ? 0 : exchange->deadline_ns);
            }
            const bool open_pending = open_ != nullptr && (!queue.finished() || open_busy > 0);
            if (!open_pending && !lanes_pending && live_ == 0) break;

            // With an open-loop schedule the generator polls instead of
            // sleeping: an idle virtual CPU can take milliseconds to wake,
            // which would show up as lateness.  It has a CPU of its own.
            now = now_ns();
            timespec timeout{};
            if (open_ == nullptr && wake != UINT64_MAX && wake > now) {
                const std::uint64_t wait = wake - now;
                timeout.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
                timeout.tv_nsec = static_cast<long>(wait % 1'000'000'000);
            }
            const int ready = ::epoll_pwait2(epoll_fd_, events, 64,
                                             open_ == nullptr && wake == UINT64_MAX
                                                 ? nullptr
                                                 : &timeout,
                                             nullptr);
            if (ready < 0 && errno != EINTR) throw std::runtime_error("epoll_pwait2 failed");
            for (int e = 0; e < ready; ++e) {
                advance(*static_cast<Exchange*>(events[e].data.ptr), events[e].events);
            }
            now = now_ns();
            for (auto& exchange : in_flight_) {
                if (exchange && exchange->fd >= 0 && exchange->deadline_ns <= now) {
                    finish(*exchange, /*failed=*/true);
                }
            }
            // Retire finished exchanges and free their slots.
            for (auto& exchange : in_flight_) {
                if (!exchange || exchange->fd >= 0) continue;
                const Exchange& done = *exchange;
                if (options_.spans != nullptr) {
                    options_.spans->push_back(Span{done.span, kNoParent, done.reply.id,
                                                   done.reply.start_ns, done.reply.done_ns});
                }
                if (done.source == kOpenLoopSource) {
                    --open_busy;
                    open_->done(done.index, done.reply);
                } else {
                    ClosedLoop& lane = lanes_[done.source];
                    LaneState& state = lane_state[done.source];
                    state.busy = false;
                    state.wake_ns = done.reply.done_ns + lane.think_ns;
                    lane.done(done.index, done.reply);
                }
                exchange.reset();
            }
            in_flight_.erase(std::remove(in_flight_.begin(), in_flight_.end(), nullptr),
                             in_flight_.end());
        }
        report.end_ns = now_ns();
        report.peak_threads = std::max(report.peak_threads, thread_count());
        if (open_ != nullptr) {
            report.late_us.reserve(queue.size());
            report.queue_wait_us.reserve(queue.size());
            for (std::size_t i = 0; i < queue.size(); ++i) {
                report.late_us.push_back(static_cast<double>(queue.late_ns(i)) / 1e3);
                report.queue_wait_us.push_back(static_cast<double>(queue.queue_wait_ns(i)) / 1e3);
            }
        }
        return report;
    }

private:
    void start(std::size_t source, std::size_t index, Outgoing out, std::uint64_t due_ns,
               std::uint64_t now) {
        auto exchange = std::make_unique<Exchange>();
        exchange->source = source;
        exchange->index = index;
        exchange->span =
            source == kOpenLoopSource ? SpanName::kClientAssess : SpanName::kClientIngest;
        exchange->body = out.body;
        exchange->reply.id = ++last_id_;
        exchange->reply.due_ns = due_ns;
        std::string& head = exchange->head;
        head = out.post ? "POST " : "GET ";
        head += out.target;
        head += " HTTP/1.1\r\nHost: bench\r\n";
        if (options_.tag_requests) {
            head += "X-Request-Id: ";
            head += std::to_string(exchange->reply.id);
            head += "\r\n";
        }
        if (out.post) {
            head += "Content-Length: ";
            head += std::to_string(out.body.size());
            head += "\r\n";
        }
        head += "\r\n";

        exchange->reply.start_ns = now;
        exchange->deadline_ns = now + kExchangeTimeoutNs;
        Exchange* raw = exchange.get();
        in_flight_.push_back(std::move(exchange));
        ++live_;
        raw->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (raw->fd < 0) {
            --live_;
            raw->reply.done_ns = now_ns();
            return;  // fd < 0: retired as a transport failure
        }
        const int one = 1;
        ::setsockopt(raw->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        const int rc = ::connect(raw->fd, reinterpret_cast<const sockaddr*>(&address_),
                                 sizeof address_);
        if (rc != 0 && errno != EINPROGRESS) {
            finish(*raw, true);
            return;
        }
        raw->connected = rc == 0;
        epoll_event event{};
        event.events = EPOLLOUT;
        event.data.ptr = raw;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, raw->fd, &event) != 0) finish(*raw, true);
    }

    void advance(Exchange& x, std::uint32_t events) {
        if (x.fd < 0) return;
        const std::size_t total = x.head.size() + x.body.size();
        if (x.sent < total) {
            if (!x.connected) {
                int error = 0;
                socklen_t length = sizeof error;
                if (::getsockopt(x.fd, SOL_SOCKET, SO_ERROR, &error, &length) != 0 ||
                    error != 0) {
                    finish(x, true);
                    return;
                }
                x.connected = true;
            }
            // At most kSendChunk bytes per wake-up: a large body goes out
            // over several loop turns, so sending it never delays the
            // open-loop schedule by more than one chunk's copy.
            if (x.sent < total) {
                iovec parts[2];
                int count = 0;
                if (x.sent < x.head.size()) {
                    parts[count++] = {x.head.data() + x.sent, x.head.size() - x.sent};
                    if (!x.body.empty()) {
                        parts[count++] = {const_cast<char*>(x.body.data()),
                                          std::min(x.body.size(), kSendChunk)};
                    }
                } else {
                    const std::size_t offset = x.sent - x.head.size();
                    parts[count++] = {const_cast<char*>(x.body.data()) + offset,
                                      std::min(x.body.size() - offset, kSendChunk)};
                }
                msghdr message{};
                message.msg_iov = parts;
                message.msg_iovlen = static_cast<std::size_t>(count);
                const ssize_t n = ::sendmsg(x.fd, &message, MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
                    // The peer may already have answered (and closed): read it.
                    x.sent = total;
                } else {
                    x.sent += static_cast<std::size_t>(n);
                }
                if (x.sent < total) return;
            }
            epoll_event event{};
            event.events = EPOLLIN;
            event.data.ptr = &x;
            if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, x.fd, &event) != 0) {
                finish(x, true);
            }
            return;
        }
        if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;
        char buffer[65536];
        for (;;) {
            const ssize_t n = ::recv(x.fd, buffer, sizeof buffer, 0);
            if (n > 0) {
                x.in.append(buffer, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                finish(x, false);
                return;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            finish(x, true);
            return;
        }
    }

    void finish(Exchange& x, bool failed) {
        x.reply.done_ns = now_ns();
        if (failed) {
            x.reply.ok = false;
            x.reply.status = 0;
        } else {
            parse_reply(x.in, x.reply);
        }
        if (x.fd >= 0) {
            ::close(x.fd);  // also removes it from the epoll set
            x.fd = -1;
            --live_;
        }
    }

    const LoadOptions& options_;
    std::vector<ClosedLoop>& lanes_;
    OpenLoop* open_;
    int epoll_fd_ = -1;
    sockaddr_in address_{};
    std::vector<std::unique_ptr<Exchange>> in_flight_;
    std::size_t live_ = 0;
    std::uint64_t last_id_ = 0;
};

}  // namespace

PhaseReport run_phase(const LoadOptions& options, std::vector<ClosedLoop>& lanes,
                      OpenLoop* open) {
    Generator generator{options, lanes, open};
    return generator.run();
}

}  // namespace daemon_bench
