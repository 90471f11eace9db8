#ifndef DAEMON_BENCH_MEASURE_H
#define DAEMON_BENCH_MEASURE_H

// Measurement primitives of the daemon benchmark: the clock, percentiles
// with their support, in-memory spans with self-time, the open-loop
// request queue's lateness/queue-wait accounting, and process facts read
// from /proc.  Everything here is covered by selftest.cpp.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace daemon_bench {

/// Monotonic nanoseconds (steady_clock, CLOCK_MONOTONIC on Linux).
inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Nearest-rank percentile of `values` at `basis_points` (5000 = median,
/// 9900 = p99): the value of rank ceil(bp * n / 10000) in ascending order.
/// Integer rank arithmetic, so p99 of 1000 samples is exactly rank 990.
/// Returns 0 for an empty sample.
double percentile(std::vector<double> values, std::uint32_t basis_points);

/// How many samples of a size-n sample lie strictly beyond the
/// nearest-rank percentile at `basis_points` (n - rank).
std::size_t samples_beyond(std::size_t n, std::uint32_t basis_points);

/// Every reported tail needs at least this many samples beyond it.
constexpr std::size_t kMinSamplesBeyondTail = 10;

/// Samples per tail window: the smallest sample whose p99 has
/// kMinSamplesBeyondTail samples beyond it.
constexpr std::size_t kTailWindow = 1000;

/// A timing reported as median and tail, with its support.
///
/// The tail is windowed: the samples, in the order they were taken, are
/// cut into consecutive windows of kTailWindow (a remainder joins the last
/// window), and `p99` is the median of the windows' p99s.  A stall of the
/// host that hits one window then moves one window's p99, not the run's.
/// `p99_pooled` is the plain p99 of all samples, printed beside it.
struct Tail {
    double p50 = 0.0;         ///< median of all samples
    double p99 = 0.0;         ///< median over windows of each window's p99
    double p99_pooled = 0.0;  ///< p99 of all samples
    std::size_t n = 0;
    std::size_t windows = 0;
    std::size_t beyond_p99 = 0;  ///< fewest samples beyond the p99 in any window
};
Tail tail_of(const std::vector<double>& values_in_order);

// ---------------------------------------------------------------------------
// Spans

/// Layer names a span can carry (index into span_name()).
enum class SpanName : std::uint8_t {
    kClientIngest,      ///< root: POST /ingest, connect -> full response
    kClientAssess,      ///< root: GET /assess, connect -> full response
    kHttpHandler,       ///< child: the daemon's HttpHandler call
    kReplayIngest,      ///< root: one replayed POST /ingest
    kGate,              ///< IngestGate::try_admit + release
    kParse,             ///< net::parse_ingest_body
    kCommit,            ///< FeedbackStore::ingest_batch
    kObserve,           ///< BatchAssessor::observe over the batch's records
    kReplayAssess,      ///< root: one replayed GET /assess
    kStreamState,       ///< BatchAssessor::stream_state
    kSnapshot,          ///< FeedbackStore::history_snapshot
    kPhase2,            ///< TrustFunction::evaluate on the snapshot view
    kTwoPhase,          ///< TwoPhaseAssessor::assess (stream not yet judged)
    kAssess,            ///< BatchAssessor::assess for the one server
    kCount
};
const char* span_name(SpanName name);

constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

struct Span {
    SpanName name = SpanName::kCount;
    std::uint32_t parent = kNoParent;  ///< index into the same span vector
    std::uint64_t request = 0;         ///< request id shared by a request's spans
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;

    [[nodiscard]] std::uint64_t duration_ns() const {
        return end_ns > start_ns ? end_ns - start_ns : 0;
    }
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children (clipped to the parent) covers.
/// Children may nest or overlap each other; a covered instant counts once.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Open-loop accounting

/// The open-loop request queue.  Requests fall due on a fixed schedule;
/// the generator notices each one at some instant (its lateness is
/// noticed - due), and sends it when a connection slot is free (its
/// queue wait is started - noticed).  A request's latency runs from its
/// due time, so both count against the system, but only lateness counts
/// against the generator's validity.
class OpenLoopQueue {
public:
    explicit OpenLoopQueue(std::vector<std::uint64_t> due_ns);

    /// Notice every request due at or before `now`.
    void admit_due(std::uint64_t now);

    /// Pop the oldest noticed request, stamping its start at `now`;
    /// returns its index, or SIZE_MAX when none is waiting.
    std::size_t pop(std::uint64_t now);

    /// Due time of the next request not yet noticed (UINT64_MAX if none).
    [[nodiscard]] std::uint64_t next_due() const;
    [[nodiscard]] bool waiting() const { return head_ < admitted_; }
    [[nodiscard]] bool finished() const { return head_ == due_.size(); }
    [[nodiscard]] std::size_t size() const { return due_.size(); }

    [[nodiscard]] std::uint64_t due(std::size_t i) const { return due_[i]; }
    [[nodiscard]] std::uint64_t late_ns(std::size_t i) const {
        return noticed_[i] - due_[i];
    }
    [[nodiscard]] std::uint64_t queue_wait_ns(std::size_t i) const {
        return started_[i] - noticed_[i];
    }

private:
    std::vector<std::uint64_t> due_;
    std::vector<std::uint64_t> noticed_;
    std::vector<std::uint64_t> started_;
    std::size_t admitted_ = 0;  ///< requests noticed so far
    std::size_t head_ = 0;      ///< requests started so far
};

// ---------------------------------------------------------------------------
// Process facts

/// VmHWM of this process in MiB (0 when /proc is unreadable).
double peak_rss_mib();

/// Threads of this process (entries of /proc/self/task).
std::size_t thread_count();

/// CPU placement of a run.  The load generator runs alone on the first
/// CPU the process may use, the daemon's event loop alone on the second,
/// and the calibrator's workers on the rest (or beside the loop when there
/// is no third CPU).  A busy event loop then never delays the generator by
/// sharing its core, which the scheduler otherwise tends to arrange.
struct CpuPlan {
    cpu_set_t all;
    cpu_set_t loadgen;
    cpu_set_t loop;
    cpu_set_t workers;
    bool split = false;  ///< false with a single usable CPU: nothing is pinned
};
CpuPlan plan_cpus();

/// Restrict the calling thread (and threads it creates later) to `cpus`;
/// a no-op when the plan is not split.
void pin_current_thread(const CpuPlan& plan, const cpu_set_t& cpus);

/// Keeps one CPU from going idle while it lives: a SCHED_IDLE thread pinned
/// there spins.  Any ordinary thread on that CPU preempts it at once, so
/// the CPU's own work is not slowed, but the CPU never halts.  A halted
/// virtual CPU takes from tens of microseconds to milliseconds to wake,
/// and that wake-up would land in every request finding the loop idle.
/// Starts no thread when the plan is not split.
class IdleSpinner {
public:
    IdleSpinner(const CpuPlan& plan, const cpu_set_t& cpu);
    ~IdleSpinner();

    IdleSpinner(const IdleSpinner&) = delete;
    IdleSpinner& operator=(const IdleSpinner&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::thread thread_;  ///< declared last: it reads stop_
};

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_MEASURE_H
