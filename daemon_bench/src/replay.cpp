#include "replay.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/online.h"
#include "daemon.h"
#include "net/ingest.h"

namespace daemon_bench {

namespace {

namespace net = hpr::net;
namespace repsys = hpr::repsys;

/// Appends spans; `open` returns the index a child names as its parent.
class SpanWriter {
public:
    explicit SpanWriter(std::vector<Span>& spans) : spans_(spans) {}

    std::uint32_t open(SpanName name, std::uint32_t parent, std::uint64_t request) {
        spans_.push_back(Span{name, parent, request, now_ns(), 0});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }
    void close(std::uint32_t span) { spans_[span].end_ns = now_ns(); }

private:
    std::vector<Span>& spans_;
};

}  // namespace

ReplayResult replay(const Workload& w, const std::vector<ServedRequest>& order,
                    std::size_t calibration_threads) {
    DaemonOptions options;
    options.listen = false;
    Daemon daemon{options, calibration_threads};
    ReplayResult result;

    // The preload is set-up, not measured: it goes through the handler.
    for (const Lane& lane : w.preload) {
        for (const Batch& batch : lane.batches) {
            net::HttpRequest request;
            request.method = "POST";
            request.target = request.path = "/ingest";
            request.body = batch.body;
            if (daemon.ingest->handle_ingest(request).status != 200) {
                throw std::runtime_error("replay: preload batch refused");
            }
        }
    }

    result.spans.reserve(order.size() * 6);
    SpanWriter spans{result.spans};
    net::IngestGate& gate = daemon.ingest->gate();
    const hpr::serve::BatchAssessor& assessor = *daemon.assessor;
    const repsys::TrustFunction& trust = assessor.assessor().trust_function();
    std::vector<repsys::Feedback> feedbacks;
    std::vector<std::size_t> shards;
    std::string error;
    std::uint64_t request_id = 0;
    for (const ServedRequest& served : order) {
        ++request_id;
        if (served.ingest) {
            const Batch& batch = w.ingest.at(served.lane).batches.at(served.index);
            const std::uint32_t root = spans.open(SpanName::kReplayIngest, kNoParent, request_id);
            // The front-end charges the gate at header-parse time and
            // releases on dispatch; then the handler parses, commits and
            // streams the batch into the screener bank.
            std::uint32_t span = spans.open(SpanName::kGate, root, request_id);
            const std::size_t estimate = net::IngestGate::estimate_records(batch.body.size());
            const bool admitted = gate.try_admit(estimate);
            if (admitted) gate.release(estimate);
            spans.close(span);
            if (!admitted) throw std::runtime_error("replay: gate shed a batch");

            span = spans.open(SpanName::kParse, root, request_id);
            const bool parsed = net::parse_ingest_body(batch.body, feedbacks, error);
            spans.close(span);
            if (!parsed) throw std::runtime_error("replay: " + error);

            span = spans.open(SpanName::kCommit, root, request_id);
            daemon.store.ingest_batch(feedbacks);
            spans.close(span);

            span = spans.open(SpanName::kObserve, root, request_id);
            for (const repsys::Feedback& feedback : feedbacks) daemon.assessor->observe(feedback);
            spans.close(span);
            spans.close(root);

            shards.clear();
            for (const repsys::Feedback& feedback : feedbacks) {
                shards.push_back(daemon.store.shard_of(feedback.server));
            }
            std::sort(shards.begin(), shards.end());
            result.shards_touched += static_cast<std::size_t>(
                std::unique(shards.begin(), shards.end()) - shards.begin());
            result.records += feedbacks.size();
            ++result.batches;
        } else {
            const repsys::EntityId server = w.assess_server.at(served.index);
            // One untimed call first, so that the parts and the whole call
            // below find the server's history equally warm in cache.
            (void)assessor.assess(daemon.store, {server});
            const std::uint32_t root = spans.open(SpanName::kReplayAssess, kNoParent, request_id);
            // The parts of BatchAssessor::assess, in its order: the standing
            // stream state, then (unless suspicious) the snapshot, then
            // phase 2 for a judged stream or the full two-phase scan for
            // one not judged yet.  Then the whole call, for the coverage check.
            std::uint32_t span = spans.open(SpanName::kStreamState, root, request_id);
            const hpr::core::StreamState state = assessor.stream_state(server);
            spans.close(span);
            if (state != hpr::core::StreamState::kSuspicious) {
                span = spans.open(SpanName::kSnapshot, root, request_id);
                const repsys::TransactionHistory snapshot =
                    daemon.store.history_snapshot(server);
                spans.close(span);
                result.snapshot_records += snapshot.size();
                ++result.snapshots;
                if (state == hpr::core::StreamState::kClear) {
                    span = spans.open(SpanName::kPhase2, root, request_id);
                    const double value = trust.evaluate(snapshot.view());
                    spans.close(span);
                    if (!(value >= 0.0)) throw std::runtime_error("replay: bad trust value");
                } else {
                    span = spans.open(SpanName::kTwoPhase, root, request_id);
                    (void)assessor.assessor().assess(snapshot);
                    spans.close(span);
                }
            }
            span = spans.open(SpanName::kAssess, root, request_id);
            (void)assessor.assess(daemon.store, {server});
            spans.close(span);
            spans.close(root);
            ++result.assess_calls;
        }
    }
    result.final_store_records = daemon.store.size();
    return result;
}

}  // namespace daemon_bench
