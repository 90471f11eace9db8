#ifndef DAEMON_BENCH_DAEMON_H
#define DAEMON_BENCH_DAEMON_H

// The daemon under test, wired in one place.  Every daemon the benchmark
// builds (the timed one, the traced one, the replay target and the
// correctness reference) comes from this constructor, so a change to how
// the serving stack is composed touches only daemon.cpp.

#include <cstdint>
#include <functional>
#include <memory>

#include "net/endpoints.h"
#include "net/http_server.h"
#include "net/ingest.h"
#include "obs/introspection.h"
#include "repsys/store.h"
#include "serve/batch_assessor.h"
#include "stats/calibrate.h"
#include "stats/reference_cache.h"

namespace daemon_bench {

/// Wraps the daemon's HttpHandler (the traced run records a span around it).
using HandlerWrap = std::function<hpr::net::HttpHandler(hpr::net::HttpHandler)>;

struct DaemonOptions {
    /// Serve over HTTP on an ephemeral loopback port.  Off for the
    /// in-process replay target and the correctness reference.
    bool listen = true;

    /// Reuse this calibrator instead of building and warm-starting a
    /// fresh one (the correctness reference only: thresholds are a pure
    /// function of the key, so sharing cannot change a verdict).
    std::shared_ptr<hpr::stats::Calibrator> calibrator;

    /// Optional wrapper around the HTTP handler.
    HandlerWrap wrap;

    /// Called on the constructing thread just before the HTTP front-end
    /// starts its event-loop thread (which inherits that thread's CPU set).
    std::function<void()> before_listen;
};

/// The serving stack as `reputation_server --listen` composes it:
/// multi-testing with Bonferroni, `beta` trust, screener horizon 64, a
/// calibration warm start over the same key grid, the introspection tree
/// with POST /ingest, GET /assess and GET /ingest/stats, and the epoll
/// front-end.  Differences, all deliberate:
///  * BatchAssessor threads = 1: a single-server /assess never fans out;
///  * the calibrator runs on `calibration_threads` threads, chosen by the
///    caller so that the process holds at most `nproc` threads;
///  * a private ReferenceModelCache, so repeated set-ups start equally cold
///    and its statistics cover this daemon only;
///  * a gate budget and record cap sized so that no benchmark request is
///    shed (a 429 is a failure here);
///  * no flight recorder, watchdog or black-box thread.
class Daemon {
public:
    /// `calibration_threads`: worker threads of a fresh calibrator.
    Daemon(const DaemonOptions& options, std::size_t calibration_threads);

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] std::uint16_t port() const;

    /// Seconds core::warm_calibration took (0 when the calibrator was shared).
    [[nodiscard]] double warm_seconds() const { return warm_seconds_; }

    std::shared_ptr<hpr::stats::Calibrator> calibrator;
    std::shared_ptr<hpr::stats::ReferenceModelCache> reference_models;
    hpr::repsys::FeedbackStore store;
    std::unique_ptr<hpr::serve::BatchAssessor> assessor;
    std::unique_ptr<hpr::net::IngestService> ingest;
    hpr::obs::IntrospectionTree tree;
    /// Null unless listening.  Declared last, so it is destroyed (stopped
    /// and joined) before anything its handler uses.
    std::unique_ptr<hpr::net::HttpServer> server;

private:
    double warm_seconds_ = 0.0;
};

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_DAEMON_H
