#include "daemon.h"

#include "core/behavior_test.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "repsys/trust.h"

namespace daemon_bench {

namespace {

namespace net = hpr::net;

/// Pending-records budget of the ingest gate.  The largest request any
/// workload sends is estimated at under 35k records, and at most four are
/// in flight, so the budget keeps them all below the soft watermark.
constexpr std::size_t kGateBudgetRecords = std::size_t{1} << 18;

/// Per-request record cap (the largest batch is 8,192 records).
constexpr std::size_t kMaxRecordsPerRequest = 16'384;

}  // namespace

Daemon::Daemon(const DaemonOptions& options, std::size_t calibration_threads) {
    if (options.calibrator) {
        calibrator = options.calibrator;
    } else {
        hpr::core::BehaviorTestConfig calibration;
        calibration.calibration_threads = calibration_threads;
        calibrator = hpr::core::make_calibrator(calibration);
        // The key grid reputation_server warms: every window-count bucket
        // of a 1000-transaction history at m = 10, p̂ in [0.55, 1].
        const hpr::obs::Stopwatch watch;
        (void)hpr::core::warm_calibration(*calibrator, 10, 1000 / 10, 0.55, 1.0);
        warm_seconds_ = watch.seconds();
    }
    reference_models = std::make_shared<hpr::stats::ReferenceModelCache>();

    hpr::serve::BatchAssessorConfig config;
    config.assessment.mode = hpr::core::ScreeningMode::kMulti;
    config.assessment.test.bonferroni = true;
    config.assessment.test.base.reference_cache = reference_models;
    config.threads = 1;
    config.screener_horizon = 64;
    assessor = std::make_unique<hpr::serve::BatchAssessor>(
        config,
        std::shared_ptr<const hpr::repsys::TrustFunction>{
            hpr::repsys::make_trust_function("beta")},
        calibrator);

    net::IngestServiceConfig ingest_config;
    ingest_config.max_records_per_request = kMaxRecordsPerRequest;
    ingest_config.gate.pending_budget = kGateBudgetRecords;
    ingest = std::make_unique<net::IngestService>(store, *assessor, ingest_config);

    net::IntrospectionSources sources;
    sources.registry = &hpr::obs::default_registry();
    sources.tracer = &hpr::obs::default_tracer();
    sources.store = &store;
    sources.assessor = assessor.get();
    sources.calibrator = calibrator;
    net::register_introspection(tree, sources);
    net::register_ingest(tree, *ingest);

    if (options.listen) {
        net::HttpServerConfig http;
        http.port = 0;
        http.ingest_gate = &ingest->gate();
        net::HttpHandler handler = net::make_http_handler(tree, ingest.get());
        if (options.wrap) handler = options.wrap(std::move(handler));
        server = std::make_unique<net::HttpServer>(http, std::move(handler));
        if (options.before_listen) options.before_listen();
        server->start();
    }
}

std::uint16_t Daemon::port() const { return server ? server->port() : 0; }

}  // namespace daemon_bench
