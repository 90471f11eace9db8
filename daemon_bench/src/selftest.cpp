// Self-tests of the measurement primitives, run at the start of every
// benchmark run (and alone with --selftest).  A failure fails the run.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "measure.h"
#include "selftest.h"
#include "stats/rng.h"

namespace daemon_bench {

namespace {

int g_failures = 0;

void expect(bool condition, const char* what) {
    if (!condition) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++g_failures;
    }
}

/// The percentile helper against a fully sorted reference, at every
/// sample size up to 400 and the ranks the report uses.
void test_percentile() {
    hpr::stats::Rng rng{7};
    for (std::size_t n = 1; n <= 400; ++n) {
        std::vector<double> values(n);
        for (auto& v : values) v = static_cast<double>(rng.uniform_int(std::uint64_t{50}));
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        for (const std::uint32_t bp : {5000U, 9000U, 9900U, 10000U, 1U}) {
            // Rank ceil(bp/10000 * n), computed independently in doubles.
            std::size_t rank = 0;
            while (static_cast<double>(rank) * 10000.0 <
                   static_cast<double>(bp) * static_cast<double>(n)) {
                ++rank;
            }
            rank = std::max<std::size_t>(rank, 1);
            expect(percentile(values, bp) == sorted[rank - 1], "percentile matches sorted rank");
            expect(samples_beyond(n, bp) == n - rank, "samples beyond the rank");
        }
    }
    expect(samples_beyond(1000, 9900) == 10, "p99 of 1000 samples has 10 beyond");
    expect(samples_beyond(999, 9900) == 9, "p99 of 999 samples has 9 beyond");
    expect(percentile({}, 5000) == 0.0, "empty sample");
    const Tail tail = tail_of({5, 1, 4, 2, 3});
    expect(tail.p50 == 3 && tail.p99 == 5 && tail.n == 5 && tail.windows == 1 &&
               tail.beyond_p99 == 0,
           "tail of a small sample");

    // Windowed tail: 3,000 ascending samples are three windows whose p99s
    // are 989, 1989 and 2989; the reported tail is their median.
    std::vector<double> ramp(3000);
    for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(i);
    Tail windowed = tail_of(ramp);
    expect(windowed.windows == 3 && windowed.p99 == 1989 && windowed.beyond_p99 == 10 &&
               windowed.p99_pooled == 2969 && windowed.p50 == 1499,
           "windowed tail of three windows");
    // 2,500 samples: the remainder joins the second window (1,500 samples,
    // p99 at rank 1485, so 15 beyond); the median of two is the lower one.
    ramp.resize(2500);
    windowed = tail_of(ramp);
    expect(windowed.windows == 2 && windowed.p99 == 989 && windowed.beyond_p99 == 10,
           "windowed tail with a remainder");
    // One stalled window moves its own p99 only.
    ramp.assign(5000, 1.0);
    for (std::size_t i = 1000; i < 1100; ++i) ramp[i] = 1000.0;
    windowed = tail_of(ramp);
    expect(windowed.p99 == 1.0 && windowed.p99_pooled == 1000.0, "a stall moves one window");
}

/// Self time with nested, overlapping and out-of-bounds children.
void test_self_time() {
    std::vector<Span> spans;
    const auto add = [&](std::uint32_t parent, std::uint64_t start, std::uint64_t end) {
        spans.push_back(Span{SpanName::kReplayIngest, parent, 1, start, end});
        return static_cast<std::uint32_t>(spans.size() - 1);
    };
    const std::uint32_t root = add(kNoParent, 0, 100);
    const std::uint32_t a = add(root, 10, 40);   // child [10, 40)
    add(root, 30, 50);                           // overlaps a: union [10, 50)
    add(root, 90, 120);                          // sticks out: clipped to [90, 100)
    add(a, 15, 20);                              // grandchild: a's self loses 5
    add(a, 18, 25);                              // overlaps it: a's self loses 10 in all
    const std::uint32_t leaf = add(root, 60, 60);  // empty child
    const std::uint32_t lone = add(kNoParent, 5, 9);
    const std::vector<std::uint64_t> self = self_times(spans);
    expect(self[root] == 100 - 40 - 10, "root self time excludes the union of children");
    expect(self[a] == 30 - 10, "nested child self time");
    expect(self[leaf] == 0, "empty span");
    expect(self[lone] == 4, "span without children");
    expect(self[2] == 20 && self[3] == 30, "leaf self time is its duration");
}

/// Open-loop accounting against a hand-computed schedule.  Requests are
/// due every 1000 ns; one slot; the generator wakes at chosen instants.
void test_open_loop() {
    OpenLoopQueue queue{{0, 1000, 2000, 3000}};
    expect(queue.next_due() == 0, "first due");
    queue.admit_due(500);  // noticed 500 ns late
    expect(queue.pop(500) == 0, "first request starts");
    expect(queue.pop(500) == SIZE_MAX, "nothing else is due");
    queue.admit_due(2500);  // requests 1 and 2 noticed at 2500
    expect(queue.next_due() == 3000, "next due after two were noticed");
    expect(queue.pop(2600) == 1, "second request starts when the slot frees");
    queue.admit_due(3000);
    expect(queue.pop(4000) == 2, "third request waited for the slot");
    expect(queue.pop(4100) == 3, "fourth request");
    expect(queue.finished(), "all started");
    expect(queue.late_ns(0) == 500 && queue.queue_wait_ns(0) == 0, "request 0 accounting");
    expect(queue.late_ns(1) == 1500 && queue.queue_wait_ns(1) == 100, "request 1 accounting");
    expect(queue.late_ns(2) == 500 && queue.queue_wait_ns(2) == 1500, "request 2 accounting");
    expect(queue.late_ns(3) == 0 && queue.queue_wait_ns(3) == 1100, "request 3 accounting");
    // Latency runs from the due time: wait and lateness both count.
    const std::uint64_t done = 4300;
    expect(done - queue.due(2) == queue.late_ns(2) + queue.queue_wait_ns(2) + 300,
           "latency = lateness + queue wait + service");
}

}  // namespace

bool run_selftests() {
    g_failures = 0;
    test_percentile();
    test_self_time();
    test_open_loop();
    return g_failures == 0;
}

}  // namespace daemon_bench
