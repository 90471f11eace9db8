#ifndef DAEMON_BENCH_LOADGEN_H
#define DAEMON_BENCH_LOADGEN_H

// The load generator: one thread, non-blocking sockets over epoll.  It
// drives any number of closed-loop lanes (each one connection, one
// request in flight, an optional think time after each response) beside
// one open-loop stream (requests due on a fixed schedule, sent over a
// fixed number of connection slots; a request that falls due while every
// slot is busy waits, and the wait counts in its latency).  Every
// request is one connection, as the daemon closes after each response.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "measure.h"

namespace daemon_bench {

/// One request to send.
struct Outgoing {
    bool post = false;       ///< POST /ingest with `body`, else GET
    std::string target;      ///< request target, e.g. "/assess?server=7"
    std::string_view body;   ///< must stay valid until the reply arrives
};

/// One completed exchange.
struct Reply {
    bool ok = false;            ///< complete, well-formed HTTP response
    int status = 0;             ///< 0 on transport failure or malformed reply
    std::string body;
    std::uint64_t id = 0;       ///< request id (also sent as X-Request-Id when tagging)
    std::uint64_t due_ns = 0;   ///< open loop: scheduled send time; closed loop: 0
    std::uint64_t start_ns = 0; ///< connect started
    std::uint64_t done_ns = 0;  ///< full response read
};

using MakeRequest = std::function<Outgoing(std::size_t index)>;
using OnReply = std::function<void(std::size_t index, const Reply&)>;

/// Closed-loop lanes are ingest clients; their root spans are client.ingest.
struct ClosedLoop {
    std::size_t count = 0;
    std::uint64_t think_ns = 0;
    MakeRequest make;
    OnReply done;
};

/// The open loop carries the assess requests; their root spans are client.assess.
struct OpenLoop {
    std::vector<std::uint64_t> due_offset_ns;  ///< from the phase start, ascending
    std::size_t slots = 0;
    MakeRequest make;
    OnReply done;
};

struct PhaseReport {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::size_t peak_connections = 0;
    std::size_t peak_threads = 0;          ///< process threads, sampled at start and end
    std::vector<double> late_us;           ///< per open-loop request: noticed - due
    std::vector<double> queue_wait_us;     ///< per open-loop request: started - noticed
};

struct LoadOptions {
    std::uint16_t port = 0;
    bool tag_requests = false;        ///< add X-Request-Id (traced run)
    std::vector<Span>* spans = nullptr;  ///< root spans go here when set
};

/// Run the lanes and the open-loop stream (may be null) to completion.
/// Callbacks run on the calling thread.
PhaseReport run_phase(const LoadOptions& options, std::vector<ClosedLoop>& lanes,
                      OpenLoop* open);

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_LOADGEN_H
