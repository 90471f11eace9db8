#include "measure.h"

#include <dirent.h>
#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace daemon_bench {

namespace {

std::size_t nearest_rank(std::size_t n, std::uint32_t basis_points) {
    const std::size_t rank =
        (static_cast<std::size_t>(basis_points) * n + 9999) / 10000;
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, std::uint32_t basis_points) {
    if (values.empty()) return 0.0;
    const std::size_t rank = nearest_rank(values.size(), basis_points);
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(values.begin(), nth, values.end());
    return *nth;
}

std::size_t samples_beyond(std::size_t n, std::uint32_t basis_points) {
    if (n == 0) return 0;
    return n - nearest_rank(n, basis_points);
}

Tail tail_of(const std::vector<double>& values_in_order) {
    Tail tail;
    tail.n = values_in_order.size();
    tail.p50 = percentile(values_in_order, 5000);
    tail.p99_pooled = percentile(values_in_order, 9900);
    tail.windows = std::max<std::size_t>(1, tail.n / kTailWindow);
    std::vector<double> window_p99;
    tail.beyond_p99 = tail.n;
    for (std::size_t w = 0; w < tail.windows; ++w) {
        const std::size_t begin = w * kTailWindow;
        const std::size_t end = w + 1 == tail.windows ? tail.n : begin + kTailWindow;
        const auto first = values_in_order.begin() + static_cast<std::ptrdiff_t>(begin);
        const auto last = values_in_order.begin() + static_cast<std::ptrdiff_t>(end);
        window_p99.push_back(percentile(std::vector<double>(first, last), 9900));
        tail.beyond_p99 = std::min(tail.beyond_p99, samples_beyond(end - begin, 9900));
    }
    tail.p99 = percentile(window_p99, 5000);
    return tail;
}

const char* span_name(SpanName name) {
    switch (name) {
        case SpanName::kClientIngest: return "client.ingest";
        case SpanName::kClientAssess: return "client.assess";
        case SpanName::kHttpHandler: return "net.http.handler";
        case SpanName::kReplayIngest: return "replay.ingest";
        case SpanName::kGate: return "net.ingest.gate";
        case SpanName::kParse: return "net.ingest.parse";
        case SpanName::kCommit: return "repsys.store.commit";
        case SpanName::kObserve: return "serve.observe";
        case SpanName::kReplayAssess: return "replay.assess";
        case SpanName::kStreamState: return "serve.stream_state";
        case SpanName::kSnapshot: return "repsys.store.snapshot";
        case SpanName::kPhase2: return "repsys.trust.phase2";
        case SpanName::kTwoPhase: return "core.two_phase";
        case SpanName::kAssess: return "serve.assess";
        case SpanName::kCount: break;
    }
    return "unknown";
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::uint32_t>> children(spans.size());
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != kNoParent && spans[i].parent < spans.size()) {
            children[spans[i].parent].push_back(i);
        }
    }
    std::vector<std::uint64_t> self(spans.size());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& parent = spans[i];
        covered.clear();
        for (const std::uint32_t c : children[i]) {
            const std::uint64_t lo = std::max(spans[c].start_ns, parent.start_ns);
            const std::uint64_t hi = std::min(spans[c].end_ns, parent.end_ns);
            if (hi > lo) covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        std::uint64_t union_ns = 0;
        std::uint64_t reach = 0;  // end of the union so far
        for (const auto& [lo, hi] : covered) {
            const std::uint64_t from = std::max(lo, reach);
            if (hi > from) union_ns += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = parent.duration_ns() - std::min(union_ns, parent.duration_ns());
    }
    return self;
}

OpenLoopQueue::OpenLoopQueue(std::vector<std::uint64_t> due_ns)
    : due_(std::move(due_ns)),
      noticed_(due_.size(), 0),
      started_(due_.size(), 0) {}

void OpenLoopQueue::admit_due(std::uint64_t now) {
    while (admitted_ < due_.size() && due_[admitted_] <= now) {
        noticed_[admitted_++] = now;
    }
}

std::size_t OpenLoopQueue::pop(std::uint64_t now) {
    if (!waiting()) return SIZE_MAX;
    started_[head_] = now;
    return head_++;
}

std::uint64_t OpenLoopQueue::next_due() const {
    return admitted_ < due_.size() ? due_[admitted_] : UINT64_MAX;
}

double peak_rss_mib() {
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(status);
    return kib / 1024.0;
}

std::size_t thread_count() {
    DIR* tasks = ::opendir("/proc/self/task");
    if (tasks == nullptr) return 0;
    std::size_t count = 0;
    while (const dirent* entry = ::readdir(tasks)) {
        if (entry->d_name[0] != '.') ++count;
    }
    ::closedir(tasks);
    return count;
}

CpuPlan plan_cpus() {
    CpuPlan plan;
    CPU_ZERO(&plan.all);
    CPU_ZERO(&plan.loadgen);
    if (::sched_getaffinity(0, sizeof plan.all, &plan.all) != 0) return plan;
    CPU_ZERO(&plan.loop);
    CPU_ZERO(&plan.workers);
    int seen = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &plan.all)) continue;
        CPU_SET(cpu, seen == 0 ? &plan.loadgen : seen == 1 ? &plan.loop : &plan.workers);
        ++seen;
    }
    plan.split = seen >= 2;
    if (seen == 2) plan.workers = plan.loop;
    return plan;
}

void pin_current_thread(const CpuPlan& plan, const cpu_set_t& cpus) {
    if (plan.split) (void)::sched_setaffinity(0, sizeof cpus, &cpus);
}

IdleSpinner::IdleSpinner(const CpuPlan& plan, const cpu_set_t& cpu) {
    if (!plan.split) return;
    thread_ = std::thread([this, plan, cpu] {
        pin_current_thread(plan, cpu);
        const sched_param lowest{};
        (void)::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &lowest);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        }
    });
}

IdleSpinner::~IdleSpinner() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
}

}  // namespace daemon_bench
