// The daemon benchmark: one workload of traffic over POST /ingest and
// GET /assess against a live daemon in this process, driven only through
// HTTP, with correctness checks on every run.  See daemon_bench/README.md.
//
//   daemon_bench --workload NAME --seed N --seconds S --trace 0|1
//   daemon_bench --selftest
//
// --trace 0 measures three phases, each on a freshly set-up daemon, and
// prints each end-to-end metric's median over them; --trace 1 measures one
// untraced phase, then a traced HTTP phase of the same inputs and an
// in-process replay, and prints the per-layer metrics.  Human-readable
// lines come first; the last line of stdout is one JSON object.  A failed
// check exits 1 (after a result line with "correct": false); a run whose
// load generator fell behind exits 3 without a result.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon.h"
#include "loadgen.h"
#include "measure.h"
#include "obs/metrics.h"
#include "replay.h"
#include "repsys/types.h"
#include "selftest.h"
#include "workload.h"

namespace daemon_bench {
namespace {

namespace net = hpr::net;
namespace repsys = hpr::repsys;

/// An assess answered 200 within this limit meets the SLO.
constexpr double kAssessSloUs = 5'000.0;

/// A run whose open-loop generator noticed its p99 request later than this
/// is invalid: the numbers would describe the generator, not the daemon.
/// Judged like the metrics: the windowed p99 of each phase, then the median
/// over the run's phases, so one host stall does not decide it.
constexpr double kMaxLateP99Us = 1'000.0;

/// Measured phases per --trace 0 run, each on a freshly set-up daemon;
/// every end-to-end metric is the median over them.
constexpr int kPhasesPerRun = 3;

/// Tolerated ratio between the summed parts of the replayed assess calls
/// and the summed whole calls they split.
constexpr double kCoverageLow = 0.75;
constexpr double kCoverageHigh = 1.25;

// ---------------------------------------------------------------------------
// Output

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string number(double value) {
    char buffer[64];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    return std::string(buffer, result.ptr);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/// Collected check failures; any one fails the run.
struct Checks {
    std::vector<std::string> failures;
    void require(bool condition, const std::string& what) {
        if (!condition) failures.push_back(what);
    }
};

void print_tail(const char* name, const Tail& tail, const char* unit) {
    std::printf("  %-26s p50 %11.3f  p99 %11.3f %-2s (n=%zu; %zu windows, >= %zu beyond "
                "each p99; pooled p99 %.3f)\n",
                name, tail.p50, tail.p99, unit, tail.n, tail.windows, tail.beyond_p99,
                tail.p99_pooled);
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// ---------------------------------------------------------------------------
// Counters the per-layer report reads as deltas over the timed phase.

struct Counters {
    std::uint64_t http_shed = 0;
    std::uint64_t http_timeouts = 0;
    std::uint64_t store_contention = 0;
    std::uint64_t shortcuts = 0;
    std::uint64_t screener_evaluations = 0;
    hpr::stats::CalibratorStats calibration;
    hpr::stats::ReferenceModelCacheStats reference_models;
};

Counters read_counters(const Daemon& daemon) {
    auto& registry = hpr::obs::default_registry();
    Counters c;
    c.http_shed = registry.counter("hpr_http_shed_total").value();
    c.http_timeouts = registry.counter("hpr_http_timeouts_total").value();
    c.store_contention = registry.counter("hpr_store_shard_contention_total").value();
    c.shortcuts = registry.counter("hpr_serving_incremental_shortcuts_total").value();
    c.screener_evaluations = registry.counter("hpr_screener_evaluations_total").value();
    c.calibration = daemon.calibrator->stats();
    c.reference_models = daemon.reference_models->stats();
    return c;
}

// ---------------------------------------------------------------------------
// The handler span of the traced run.

/// Written only by the daemon's event-loop thread while `recording`;
/// read by the main thread after the server has stopped (joined).
struct HandlerTrace {
    std::atomic<bool> recording{false};
    std::vector<Span> spans;
    const net::IngestGate* gate = nullptr;
    std::size_t pending_peak = 0;
};

HandlerWrap trace_handler(HandlerTrace& trace) {
    return [&trace](net::HttpHandler inner) -> net::HttpHandler {
        return [&trace, inner = std::move(inner)](const net::HttpRequest& request) {
            if (!trace.recording.load(std::memory_order_acquire)) return inner(request);
            std::uint64_t id = 0;
            if (const auto header = request.header("X-Request-Id")) {
                std::from_chars(header->data(), header->data() + header->size(), id);
            }
            if (trace.gate != nullptr) {
                trace.pending_peak = std::max(trace.pending_peak, trace.gate->pending());
            }
            const std::uint64_t start = now_ns();
            net::HttpResponse response = inner(request);
            if (trace.spans.size() < trace.spans.capacity()) {
                trace.spans.push_back(
                    Span{SpanName::kHttpHandler, kNoParent, id, start, now_ns()});
            }
            return response;
        };
    };
}

// ---------------------------------------------------------------------------
// One HTTP run: set-up(s), the timed phase, and the checks.

struct HttpRun {
    double setup_s = 0.0;
    double warm_s = 0.0;
    PhaseReport phase;
    std::vector<double> ingest_ms;
    std::vector<double> assess_us;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t assess_scheduled = 0;
    std::size_t assess_ok_in_slo = 0;
    std::size_t acked_records = 0;
    std::uint64_t last_ack_ns = 0;
    double peak_rss_mib = 0.0;
    std::size_t attackers = 0, detected = 0, honest = 0, false_flags = 0;
    Counters before, after;
    std::size_t screener_bytes = 0, screener_streams = 0;

    // Traced runs only.
    std::vector<Span> spans;               ///< roots, then handler spans linked to them
    std::vector<ServedRequest> served;     ///< timed requests in handler order
    std::size_t gate_pending_peak = 0;

    [[nodiscard]] double records_per_s() const {
        return share(static_cast<double>(acked_records),
                     static_cast<double>(last_ack_ns - phase.start_ns) / 1e9);
    }
};

/// Preload the workload's set-up lanes over POST /ingest, concurrently.
void preload(const Workload& w, std::uint16_t port, Checks& checks) {
    std::vector<ClosedLoop> lanes;
    std::size_t refused = 0;
    for (const Lane& lane : w.preload) {
        ClosedLoop loop;
        loop.count = lane.batches.size();
        loop.make = [&lane](std::size_t i) {
            return Outgoing{true, "/ingest", lane.batches[i].body};
        };
        loop.done = [&lane, &refused](std::size_t i, const Reply& reply) {
            const std::string expected =
                "accepted=" + std::to_string(lane.batches[i].records.size()) + "\n";
            if (!reply.ok || reply.status != 200 || reply.body != expected) ++refused;
        };
        lanes.push_back(std::move(loop));
    }
    LoadOptions options;
    options.port = port;
    (void)run_phase(options, lanes, nullptr);
    checks.require(refused == 0, std::to_string(refused) + " preload batches refused");
}

/// GET /assess for every server the store knows, over `connections` lanes.
std::vector<std::string> fetch_verdicts(const std::vector<repsys::EntityId>& servers,
                                        std::uint16_t port, std::size_t connections,
                                        Checks& checks) {
    std::vector<std::string> bodies(servers.size());
    std::vector<ClosedLoop> lanes(connections);
    std::size_t failed = 0;
    for (std::size_t l = 0; l < connections; ++l) {
        lanes[l].count = (servers.size() + connections - 1 - l) / connections;
        lanes[l].make = [&, l](std::size_t i) {
            return Outgoing{false,
                            "/assess?server=" + std::to_string(servers[l + i * connections]),
                            {}};
        };
        lanes[l].done = [&, l](std::size_t i, const Reply& reply) {
            if (!reply.ok || reply.status != 200) ++failed;
            bodies[l + i * connections] = reply.body;
        };
    }
    LoadOptions options;
    options.port = port;
    (void)run_phase(options, lanes, nullptr);
    checks.require(failed == 0, std::to_string(failed) + " final /assess fetches failed");
    return bodies;
}

std::size_t history_length_of(const std::string& body) {
    const std::size_t at = body.find("\nhistory_length ");
    if (at == std::string::npos) return 0;
    std::size_t value = 0;
    std::from_chars(body.data() + at + 16, body.data() + body.size(), value);
    return value;
}

bool suspicious(const std::string& body) {
    return body.find("\nverdict suspicious\n") != std::string::npos;
}

/// Feed a fresh store and BatchAssessor every server's full sequence (in
/// `threads` threads over disjoint servers) and compare each server's
/// /assess page with the live daemon's final body.
void check_final_verdicts(const Workload& w, const std::vector<repsys::EntityId>& servers,
                          const std::vector<std::string>& live,
                          std::shared_ptr<hpr::stats::Calibrator> calibrator,
                          std::size_t threads, Checks& checks) {
    DaemonOptions options;
    options.listen = false;
    options.calibrator = std::move(calibrator);
    Daemon reference{options, 1};
    std::vector<std::thread> feeders;
    std::atomic<std::size_t> feed_errors{0};
    for (std::size_t t = 0; t < threads; ++t) {
        feeders.emplace_back([&, t] {
            std::vector<repsys::Feedback> feedbacks;
            for (std::uint32_t s = static_cast<std::uint32_t>(1 + t); s <= w.servers;
                 s += static_cast<std::uint32_t>(threads)) {
                const auto& outcomes = w.outcomes[s];
                if (outcomes.empty()) continue;
                feedbacks.clear();
                for (std::size_t i = 0; i < outcomes.size(); ++i) {
                    feedbacks.push_back(repsys::Feedback{
                        static_cast<repsys::Timestamp>(i + 1), s, 0,
                        outcomes[i] ? repsys::Rating::kPositive : repsys::Rating::kNegative});
                }
                try {
                    reference.store.ingest_batch(feedbacks);
                } catch (const std::exception&) {
                    feed_errors.fetch_add(1);
                    continue;
                }
                for (const auto& f : feedbacks) reference.assessor->observe(f);
            }
        });
    }
    for (auto& feeder : feeders) feeder.join();
    checks.require(feed_errors.load() == 0, "reference feed rejected a sequence");
    checks.require(reference.store.servers() == servers,
                   "live and reference stores know different servers");
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        hpr::obs::IntrospectionRequest request;
        request.path = "/assess";
        request.query = "server=" + std::to_string(servers[i]);
        const hpr::obs::IntrospectionPage page = reference.ingest->assess_page(request);
        if (page.status != 200 || page.body != live[i]) {
            if (mismatches < 3) {
                std::fprintf(stderr, "final verdict mismatch, server %u:\n--- live\n%s--- "
                             "reference\n%s", servers[i], live[i].c_str(), page.body.c_str());
            }
            ++mismatches;
        }
    }
    checks.require(mismatches == 0,
                   std::to_string(mismatches) + " final /assess bodies differ from the reference");
}

/// Set up a daemon, run the workload's timed phase against it, check the
/// outcome and tear the daemon down.
HttpRun run_http(const Workload& w, bool traced, bool verify_final, std::size_t connections,
                 Checks& checks) {
    HttpRun run;
    HandlerTrace trace;
    DaemonOptions options;
    if (traced) {
        options.wrap = trace_handler(trace);
        trace.spans.reserve(w.timed_batches() + w.assess_due_ns.size() + 16);
    }
    const CpuPlan cpus = plan_cpus();
    options.before_listen = [&cpus] { pin_current_thread(cpus, cpus.loop); };
    const std::uint64_t setup_start = now_ns();
    // Threads inherit the CPU set of the thread that creates them: the
    // calibrator's workers get the worker CPUs, the event loop its own
    // CPU, and the generator then moves to its own.  Thread budget: the
    // generator, the loop, its idle spinner and connections - 3 workers.
    pin_current_thread(cpus, cpus.workers);
    auto daemon = std::make_unique<Daemon>(options, connections - 2);
    pin_current_thread(cpus, cpus.loadgen);
    auto spinner = std::make_unique<IdleSpinner>(cpus, cpus.loop);
    preload(w, daemon->port(), checks);
    run.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
    run.warm_s = daemon->warm_seconds();
    trace.gate = &daemon->ingest->gate();

    // Acknowledged records per server: the read-your-writes floor.
    std::vector<std::uint32_t> acked(w.servers + 1, 0);
    for (const Lane& lane : w.preload) {
        for (const Batch& batch : lane.batches) {
            for (const Record& r : batch.records) acked[r.server] = std::max(acked[r.server], r.time);
        }
    }
    const std::size_t preload_records = w.preload_records();

    std::vector<ClosedLoop> lanes;
    std::map<std::uint64_t, ServedRequest> by_id;
    for (std::size_t l = 0; l < w.ingest.size(); ++l) {
        const Lane& lane = w.ingest[l];
        ClosedLoop loop;
        loop.count = lane.batches.size();
        loop.think_ns = lane.think_ns;
        loop.make = [&lane](std::size_t i) {
            return Outgoing{true, "/ingest", lane.batches[i].body};
        };
        loop.done = [&, l](std::size_t i, const Reply& reply) {
            ++run.attempted;
            const Batch& batch = lane.batches[i];
            if (!reply.ok || reply.status != 200 ||
                reply.body != "accepted=" + std::to_string(batch.records.size()) + "\n") {
                ++run.failed;
                return;
            }
            for (const Record& r : batch.records) acked[r.server] = std::max(acked[r.server], r.time);
            run.acked_records += batch.records.size();
            run.last_ack_ns = std::max(run.last_ack_ns, reply.done_ns);
            run.ingest_ms.push_back(static_cast<double>(reply.done_ns - reply.start_ns) / 1e6);
            if (traced) by_id[reply.id] = ServedRequest{true, l, i};
        };
        lanes.push_back(std::move(loop));
    }
    std::vector<std::uint32_t> floor(w.assess_due_ns.size(), 0);
    std::size_t stale_reads = 0;
    OpenLoop open;
    open.due_offset_ns = w.assess_due_ns;
    run.assess_scheduled = w.assess_due_ns.size();
    open.slots = w.assess_slots;
    open.make = [&](std::size_t i) {
        const std::uint32_t server = w.assess_server[i];
        floor[i] = acked[server];
        return Outgoing{false, "/assess?server=" + std::to_string(server), {}};
    };
    open.done = [&](std::size_t i, const Reply& reply) {
        ++run.attempted;
        if (!reply.ok || reply.status != 200) {
            ++run.failed;
            return;
        }
        const double latency_us = static_cast<double>(reply.done_ns - reply.due_ns) / 1e3;
        run.assess_us.push_back(latency_us);
        if (latency_us <= kAssessSloUs) ++run.assess_ok_in_slo;
        if (history_length_of(reply.body) < floor[i]) ++stale_reads;
        if (traced) by_id[reply.id] = ServedRequest{false, 0, i};
    };

    LoadOptions load;
    load.port = daemon->port();
    load.tag_requests = traced;
    std::vector<Span> roots;
    if (traced) {
        roots.reserve(trace.spans.capacity());
        load.spans = &roots;
    }
    run.before = read_counters(*daemon);
    trace.recording.store(true, std::memory_order_release);
    run.phase = run_phase(load, lanes, &open);
    trace.recording.store(false, std::memory_order_release);
    run.after = read_counters(*daemon);
    spinner.reset();
    pin_current_thread(cpus, cpus.all);
    run.screener_bytes = daemon->assessor->stream_memory_bytes();
    run.screener_streams = daemon->assessor->tracked_streams();

    // Quiesced: every response is in, so every gate charge was released.
    const net::IngestService& ingest = *daemon->ingest;
    checks.require(preload_records + run.acked_records == daemon->store.size() &&
                       daemon->store.size() == ingest.accepted_records(),
                   "conservation: preload " + std::to_string(preload_records) + " + acked " +
                       std::to_string(run.acked_records) + ", store " +
                       std::to_string(daemon->store.size()) + ", service accepted " +
                       std::to_string(ingest.accepted_records()));
    checks.require(ingest.gate().pending() == 0 &&
                       ingest.gate().released_records() == ingest.gate().admitted_records(),
                   "gate did not drain: pending " + std::to_string(ingest.gate().pending()));
    checks.require(stale_reads == 0,
                   std::to_string(stale_reads) + " /assess replies missed acknowledged records");
    checks.require(run.phase.peak_connections <= connections,
                   "more concurrent connections than the budget");
    checks.require(run.phase.peak_threads <= connections,
                   "process ran " + std::to_string(run.phase.peak_threads) +
                       " threads during the timed phase (budget " +
                       std::to_string(connections) + ")");

    if (verify_final) {
        const std::vector<repsys::EntityId> servers = daemon->store.servers();
        const std::vector<std::string> bodies =
            fetch_verdicts(servers, daemon->port(), connections, checks);
        run.peak_rss_mib = peak_rss_mib();
        for (std::size_t i = 0; i < servers.size(); ++i) {
            const bool flagged = suspicious(bodies[i]);
            if (w.attacker[servers[i]]) {
                ++run.attackers;
                run.detected += flagged;
            } else {
                ++run.honest;
                run.false_flags += flagged;
            }
        }
        auto calibrator = daemon->calibrator;
        daemon.reset();
        check_final_verdicts(w, servers, bodies, std::move(calibrator), connections, checks);
    } else {
        run.peak_rss_mib = peak_rss_mib();
    }
    daemon.reset();  // joins the event loop: the handler spans are ours now

    if (traced) {
        run.spans = std::move(roots);
        std::map<std::uint64_t, std::uint32_t> root_of;
        for (std::uint32_t i = 0; i < run.spans.size(); ++i) root_of[run.spans[i].request] = i;
        std::vector<Span> handlers = std::move(trace.spans);
        std::sort(handlers.begin(), handlers.end(),
                  [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
        for (Span& span : handlers) {
            const auto root = root_of.find(span.request);
            const auto request = by_id.find(span.request);
            if (root == root_of.end() || request == by_id.end()) continue;
            span.parent = root->second;
            run.spans.push_back(span);
            run.served.push_back(request->second);
        }
        checks.require(run.served.size() == by_id.size(),
                       "traced run: " + std::to_string(by_id.size() - run.served.size()) +
                           " served requests have no handler span");
        run.gate_pending_peak = trace.pending_peak;
    }
    return run;
}

// ---------------------------------------------------------------------------
// Reports

struct Summary {
    Tail ingest_ms, assess_us, late_us, queue_wait_us;
};

/// Every reported p99 needs kMinSamplesBeyondTail samples beyond it.
void require_support(const char* name, const Tail& tail, Checks& checks) {
    checks.require(tail.beyond_p99 >= kMinSamplesBeyondTail,
                   std::string(name) + " p99 has " + std::to_string(tail.beyond_p99) +
                       " samples beyond it (need " + std::to_string(kMinSamplesBeyondTail) +
                       ")");
}

Summary summarize(const HttpRun& run, Checks& checks) {
    Summary s{tail_of(run.ingest_ms), tail_of(run.assess_us), tail_of(run.phase.late_us),
              tail_of(run.phase.queue_wait_us)};
    require_support("ingest", s.ingest_ms, checks);
    require_support("assess", s.assess_us, checks);
    require_support("loadgen lateness", s.late_us, checks);
    return s;
}

double median(std::vector<double> values) { return percentile(std::move(values), 5000); }

/// The headline metric obs.span_overhead_share compares, per workload, as
/// a value where higher is worse.
double headline_cost(const std::string& workload, const HttpRun& run, const Summary& s) {
    if (workload == "ingest_wide") return 1.0 / run.records_per_s();
    if (workload == "read_long") return s.assess_us.p50;
    return s.assess_us.p99;
}

const char* headline_name(const std::string& workload) {
    if (workload == "ingest_wide") return "ingest_records_per_s";
    if (workload == "read_long") return "assess_p50_us";
    return "assess_p99_us";
}

void print_run(const HttpRun& run, const Summary& s) {
    std::printf("timed phase: %.3f s wall, %zu exchanges attempted, %zu failed, peak %zu "
                "connections, peak %zu threads\n",
                static_cast<double>(run.phase.end_ns - run.phase.start_ns) / 1e9,
                run.attempted, run.failed, run.phase.peak_connections, run.phase.peak_threads);
    std::printf("  set-up %.4f s (calibration warm start %.4f s)\n", run.setup_s, run.warm_s);
    print_tail("ingest round trip", s.ingest_ms, "ms");
    print_tail("assess from due time", s.assess_us, "us");
    print_tail("loadgen lateness", s.late_us, "us");
    print_tail("assess slot queue wait", s.queue_wait_us, "us");
    std::printf("  ingest: %zu records acknowledged in %.3f s\n", run.acked_records,
                static_cast<double>(run.last_ack_ns - run.phase.start_ns) / 1e9);
}

std::vector<Metric> end_to_end(const HttpRun& run, const Summary& s) {
    return {
        {"setup_s", run.setup_s, "s"},
        {"ingest_records_per_s", run.records_per_s(), "records/s"},
        {"ingest_p50_ms", s.ingest_ms.p50, "ms"},
        {"ingest_p99_ms", s.ingest_ms.p99, "ms"},
        {"assess_p50_us", s.assess_us.p50, "us"},
        {"assess_p99_us", s.assess_us.p99, "us"},
        {"assess_slo_share",
         share(static_cast<double>(run.assess_ok_in_slo),
               static_cast<double>(run.assess_scheduled)),
         "fraction"},
        {"peak_rss_mb", run.peak_rss_mib, "MiB"},
    };
}

/// End-to-end outcomes that carry no relative bound: failed_share is 0 on
/// a correct run, and the verdict shares are fixed by the seed's
/// population (the final-verdict check pins them exactly), so they vary
/// between seeds by more than any bound allows.  The traced run reports them.
std::vector<Metric> outcomes(const HttpRun& run) {
    return {
        {"failed_share",
         share(static_cast<double>(run.failed), static_cast<double>(run.attempted)),
         "fraction"},
        {"detection_share",
         share(static_cast<double>(run.detected), static_cast<double>(run.attackers)),
         "fraction"},
        {"false_flag_share",
         share(static_cast<double>(run.false_flags), static_cast<double>(run.honest)),
         "fraction"},
    };
}

/// Span count, total self time and mean self time per layer.
void print_self_times(const std::vector<Span>& spans, const std::vector<std::uint64_t>& self) {
    constexpr int kNames = static_cast<int>(SpanName::kCount);
    double self_ns[kNames] = {};
    std::size_t count[kNames] = {};
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self_ns[static_cast<int>(spans[i].name)] += static_cast<double>(self[i]);
        ++count[static_cast<int>(spans[i].name)];
    }
    std::printf("  %-24s %10s %14s %12s\n", "layer", "spans", "self ms", "mean self us");
    for (int n = 0; n < kNames; ++n) {
        if (count[n] == 0) continue;
        std::printf("  %-24s %10zu %14.3f %12.3f\n", span_name(static_cast<SpanName>(n)),
                    count[n], self_ns[n] / 1e6,
                    self_ns[n] / 1e3 / static_cast<double>(count[n]));
    }
}

std::vector<Metric> per_layer(const std::string& workload, const HttpRun& untraced,
                              const Summary& untraced_summary, const HttpRun& traced,
                              const Summary& traced_summary, const ReplayResult& replay,
                              Checks& checks) {
    const std::vector<std::uint64_t> http_self = self_times(traced.spans);
    std::vector<double> wait_us;
    double handler_ns = 0.0;
    for (std::size_t i = 0; i < traced.spans.size(); ++i) {
        const Span& span = traced.spans[i];
        if (span.name == SpanName::kClientAssess) {
            wait_us.push_back(static_cast<double>(http_self[i]) / 1e3);
        } else if (span.name == SpanName::kHttpHandler) {
            handler_ns += static_cast<double>(span.duration_ns());
        }
    }
    const Tail wait = tail_of(wait_us);
    require_support("net.http.wait_us", wait, checks);
    const double timed_ns = static_cast<double>(traced.phase.end_ns - traced.phase.start_ns);

    // Replay sums by layer.
    double sums[static_cast<int>(SpanName::kCount)] = {};
    std::vector<double> snapshot_us, assess_us, phase2_us;
    double parts_ns = 0.0, whole_ns = 0.0;
    for (const Span& span : replay.spans) {
        const double ns = static_cast<double>(span.duration_ns());
        sums[static_cast<int>(span.name)] += ns;
        switch (span.name) {
            case SpanName::kSnapshot: snapshot_us.push_back(ns / 1e3); parts_ns += ns; break;
            case SpanName::kAssess: assess_us.push_back(ns / 1e3); whole_ns += ns; break;
            case SpanName::kPhase2: phase2_us.push_back(ns / 1e3); parts_ns += ns; break;
            case SpanName::kStreamState:
            case SpanName::kTwoPhase: parts_ns += ns; break;
            default: break;
        }
    }
    const double coverage = share(parts_ns, whole_ns);
    checks.require(coverage >= kCoverageLow && coverage <= kCoverageHigh,
                   "replayed assess parts cover " + number(coverage) +
                       " of the whole BatchAssessor::assess calls");
    const auto at = [&](SpanName name) { return sums[static_cast<int>(name)]; };
    const double records = static_cast<double>(replay.records);
    const double batches = static_cast<double>(replay.batches);
    const Tail replay_assess = tail_of(assess_us);
    require_support("serve.assess_us", replay_assess, checks);
    const Counters& b = traced.before;
    const Counters& a = traced.after;
    const double cal_hits = static_cast<double>(a.calibration.hits - b.calibration.hits);
    const double cal_misses = static_cast<double>(a.calibration.misses - b.calibration.misses);
    const double ref_hits =
        static_cast<double>(a.reference_models.hits - b.reference_models.hits);
    const double ref_misses =
        static_cast<double>(a.reference_models.misses - b.reference_models.misses);
    const double timed_batches = static_cast<double>(traced.ingest_ms.size());
    const double timed_assess = static_cast<double>(traced.assess_us.size());
    const double timed_records = static_cast<double>(traced.acked_records);
    const double untraced_cost = headline_cost(workload, untraced, untraced_summary);
    const double traced_cost = headline_cost(workload, traced, traced_summary);

    std::vector<Metric> m{
        {"net.http.wait_us.p50", wait.p50, "us"},
        {"net.http.wait_us.p99", wait.p99, "us"},
        {"net.http.handler_busy_share", share(handler_ns, timed_ns), "fraction"},
        {"net.http.shed", static_cast<double>(a.http_shed - b.http_shed), "count"},
        {"net.http.timeouts", static_cast<double>(a.http_timeouts - b.http_timeouts), "count"},
        {"net.ingest.parse_ns_per_record", share(at(SpanName::kParse), records), "ns/record"},
        {"net.ingest.gate_ns", share(at(SpanName::kGate), batches), "ns"},
        {"net.ingest.gate_pending_peak", static_cast<double>(traced.gate_pending_peak),
         "records"},
        {"repsys.store.commit_ns_per_record", share(at(SpanName::kCommit), records),
         "ns/record"},
        {"repsys.store.shards_per_batch",
         share(static_cast<double>(replay.shards_touched), batches), "shards/batch"},
        {"repsys.store.contention_per_batch",
         share(static_cast<double>(a.store_contention - b.store_contention), timed_batches),
         "contention/batch"},
        {"repsys.store.snapshot_us", percentile(snapshot_us, 5000), "us"},
        {"repsys.store.snapshot_records",
         share(static_cast<double>(replay.snapshot_records),
               static_cast<double>(replay.snapshots)),
         "records"},
        {"serve.observe_ns_per_record", share(at(SpanName::kObserve), records), "ns/record"},
        {"serve.assess_us.p50", replay_assess.p50, "us"},
        {"serve.assess_us.p99", replay_assess.p99, "us"},
        {"serve.shortcut_share",
         share(static_cast<double>(a.shortcuts - b.shortcuts), timed_assess), "fraction"},
        {"serve.screener_bytes_per_stream",
         share(static_cast<double>(traced.screener_bytes),
               static_cast<double>(traced.screener_streams)),
         "bytes/stream"},
        {"core.screen.evaluations_per_record",
         share(static_cast<double>(a.screener_evaluations - b.screener_evaluations),
               timed_records),
         "evals/record"},
        {"repsys.trust.phase2_us", percentile(phase2_us, 5000), "us"},
        {"stats.calibration.warm_s", traced.warm_s, "s"},
        {"stats.calibration.hit_share", share(cal_hits, cal_hits + cal_misses), "fraction"},
        {"stats.refmodel.hit_share", share(ref_hits, ref_hits + ref_misses), "fraction"},
        {"stats.refmodel.evictions",
         static_cast<double>(a.reference_models.evictions - b.reference_models.evictions),
         "count"},
        {"obs.span_overhead_share", share(traced_cost - untraced_cost, untraced_cost),
         "fraction"},
        {"loadgen.late_us.p99", traced_summary.late_us.p99, "us"},
    };
    for (Metric& outcome : outcomes(untraced)) m.push_back(std::move(outcome));

    // The human-readable split: self time per layer, with every base.
    std::printf("\nper-layer split, traced HTTP run (%zu spans over %.3f s):\n",
                traced.spans.size(), timed_ns / 1e9);
    print_tail("client wait (rt - handler)", wait, "us");
    std::printf("  handler busy %.4f of the timed phase (%.0f ns of handler spans)\n",
                share(handler_ns, timed_ns), handler_ns);
    std::printf("  calibration lookups: %.0f hits, %.0f misses; reference models: %.0f "
                "hits, %.0f misses\n", cal_hits, cal_misses, ref_hits, ref_misses);
    std::printf("  shortcut base: %.0f assess calls; evaluations base: %.0f records; "
                "contention base: %.0f batches\n", timed_assess, timed_records, timed_batches);
    std::printf("  screener bank: %zu bytes over %zu streams\n", traced.screener_bytes,
                traced.screener_streams);
    std::printf("  span overhead: %s untraced %.6g, traced %.6g (cost form)\n",
                headline_name(workload), untraced_cost, traced_cost);
    print_self_times(traced.spans, http_self);
    std::printf("in-process replay (%zu batches, %zu records, %zu assess calls; "
                "assess parts cover %.4f of the whole calls):\n",
                replay.batches, replay.records, replay.assess_calls, coverage);
    print_self_times(replay.spans, self_times(replay.spans));
    return m;
}

// ---------------------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool selftest_only = false;
};

int usage() {
    std::fprintf(stderr,
                 "usage: daemon_bench --workload ingest_wide|read_long|mixed_burst "
                 "--seed N --seconds S --trace 0|1\n"
                 "       daemon_bench --selftest\n");
    return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            args.selftest_only = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        const char* first = value.data();
        const char* last = value.data() + value.size();
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (std::from_chars(first, last, args.seed).ptr != last) return false;
        } else if (flag == "--seconds") {
            if (std::from_chars(first, last, args.seconds).ptr != last) return false;
            if (!(args.seconds > 0.0 && args.seconds <= 60.0)) return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return false;
            args.trace = value[0] - '0';
        } else {
            return false;
        }
    }
    if (args.selftest_only) return true;
    const auto& names = workload_names();
    return std::find(names.begin(), names.end(), args.workload) != names.end() &&
           args.seconds > 0.0 && args.trace >= 0;
}

int run(const Args& args) {
    const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
    const std::size_t connections = std::clamp<std::size_t>(nproc, 3, 4);
    std::printf("daemon_bench: workload %s, seed %llu, seconds %g, trace %d\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace);
    std::printf("host: nproc %zu, connection and thread budget %zu, build type %s\n", nproc,
                connections, DAEMON_BENCH_BUILD_TYPE);

    const std::uint64_t generate_start = now_ns();
    const Workload w = make_workload(args.workload, args.seed, args.seconds, connections);
    std::printf("inputs (%s): %u servers, %zu preload records in %zu lanes, %zu timed "
                "records in %zu batches over %zu ingest clients, %zu assess requests over "
                "%zu slots; generated in %.3f s\n",
                w.why.c_str(), w.servers, w.preload_records(), w.preload.size(),
                w.timed_records(), w.timed_batches(), w.ingest.size(), w.assess_due_ns.size(),
                w.assess_slots, static_cast<double>(now_ns() - generate_start) / 1e9);

    Checks checks;
    const bool traced = args.trace == 1;
    // --trace 0 measures kPhasesPerRun phases and reports per-metric
    // medians; --trace 1 needs one untraced phase as its overhead base.
    // Only the last phase runs the final-verdict check.
    const int phases = traced ? 1 : kPhasesPerRun;
    std::vector<HttpRun> untraced_runs;
    std::vector<Summary> untraced_summaries;
    std::vector<std::vector<Metric>> phase_metrics;
    std::vector<double> late_p99;  // per phase
    std::size_t attempted = 0, failed = 0;
    for (int phase = 0; phase < phases; ++phase) {
        untraced_runs.push_back(run_http(w, false, phase + 1 == phases, connections, checks));
        untraced_summaries.push_back(summarize(untraced_runs.back(), checks));
        std::printf("\nuntraced phase %d of %d:\n", phase + 1, phases);
        print_run(untraced_runs.back(), untraced_summaries.back());
        phase_metrics.push_back(end_to_end(untraced_runs.back(), untraced_summaries.back()));
        late_p99.push_back(untraced_summaries.back().late_us.p99);
        attempted += untraced_runs.back().attempted;
        failed += untraced_runs.back().failed;
    }
    const HttpRun& untraced = untraced_runs.back();
    std::printf("  final verdicts: %zu of %zu attackers suspicious, %zu of %zu honest "
                "suspicious; peak RSS %.1f MiB\n", untraced.detected, untraced.attackers,
                untraced.false_flags, untraced.honest, untraced.peak_rss_mib);
    for (const Metric& m : outcomes(untraced)) {
        std::printf("  %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    std::vector<Metric> metrics;
    if (!traced) {
        metrics = phase_metrics.front();
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::vector<double> values;
            for (const auto& phase : phase_metrics) values.push_back(phase[i].value);
            metrics[i].value = median(values);
        }
    } else {
        HttpRun traced_run = run_http(w, true, false, connections, checks);
        const Summary traced_summary = summarize(traced_run, checks);
        std::printf("\ntraced phase:\n");
        print_run(traced_run, traced_summary);
        late_p99.push_back(traced_summary.late_us.p99);
        const ReplayResult replayed = replay(w, traced_run.served, connections - 1);
        checks.require(replayed.final_store_records ==
                           w.preload_records() + traced_run.acked_records,
                       "replay ended with a different store size");
        metrics = per_layer(args.workload, untraced, untraced_summaries.back(), traced_run,
                            traced_summary, replayed, checks);
    }
    std::printf("\nmetrics:\n");
    for (const Metric& m : metrics) {
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& failure : checks.failures) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
    }
    if (median(late_p99) > kMaxLateP99Us) {
        std::fprintf(stderr, "INVALID RUN: the load generator's p99 lateness per phase (us):");
        for (const double late : late_p99) std::fprintf(stderr, " %.1f", late);
        std::fprintf(stderr, "; the median exceeds %.0f us; no result reported\n",
                     kMaxLateP99Us);
        return 3;
    }
    print_result(checks.failures.empty(), attempted, failed, metrics);
    return checks.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace daemon_bench

int main(int argc, char** argv) {
    using namespace daemon_bench;
    Args args;
    if (!parse_args(argc, argv, args)) return usage();
    if (!run_selftests()) return 1;
    if (args.selftest_only) {
        std::printf("selftest: ok\n");
        return 0;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "daemon_bench: %s\n", e.what());
        return 1;
    }
}
