#ifndef DAEMON_BENCH_SELFTEST_H
#define DAEMON_BENCH_SELFTEST_H

namespace daemon_bench {

/// Self-tests of the percentile helper, span self-time and open-loop
/// accounting; prints each failure to stderr and returns false if any.
bool run_selftests();

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_SELFTEST_H
