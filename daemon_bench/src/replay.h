#ifndef DAEMON_BENCH_REPLAY_H
#define DAEMON_BENCH_REPLAY_H

// Part two of the traced run: replay the timed requests in-process, in the
// order the daemon served them, against a fresh daemon, timing each public
// call that IngestService::handle_ingest and assess_page make.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "measure.h"
#include "workload.h"

namespace daemon_bench {

/// One timed request as the daemon served it.
struct ServedRequest {
    bool ingest = false;
    std::size_t lane = 0;   ///< ingest: lane of the batch
    std::size_t index = 0;  ///< ingest: batch index in its lane; assess: schedule index
};

struct ReplayResult {
    std::vector<Span> spans;  ///< roots and their children, parents linked
    std::size_t records = 0;
    std::size_t batches = 0;
    std::size_t shards_touched = 0;   ///< summed over batches
    std::size_t assess_calls = 0;
    std::size_t snapshot_records = 0;  ///< summed over snapshots
    std::size_t snapshots = 0;
    std::size_t final_store_records = 0;
};

/// \throws std::runtime_error when a replayed request is refused.
ReplayResult replay(const Workload& w, const std::vector<ServedRequest>& order,
                    std::size_t calibration_threads);

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_REPLAY_H
