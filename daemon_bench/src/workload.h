#ifndef DAEMON_BENCH_WORKLOAD_H
#define DAEMON_BENCH_WORKLOAD_H

// The three traffic mixes.  A workload is generated entirely from its
// seed before the daemon starts, and the daemon sees only the requests
// built from it: the same seed gives byte-identical requests.  Each
// workload is a fixed amount of work (a fixed record count and a fixed
// assess count), scaled by --seconds, never a fixed duration.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace daemon_bench {

/// One generated feedback record.  Timestamps are per-server positions
/// (1, 2, 3, ...), so every server's log is strictly increasing.
struct Record {
    std::uint32_t server = 0;
    std::uint32_t time = 0;
    std::uint8_t outcome = 0;  ///< 1 = good, 0 = bad
};

/// One POST /ingest request: its records and its ready-made body.
struct Batch {
    std::vector<Record> records;
    std::string body;
};

/// A closed-loop ingest client: it sends its batches in order, one at a
/// time, waiting `think_ns` after each response before the next send.
/// Lanes own disjoint server sets.
struct Lane {
    std::vector<Batch> batches;
    std::uint64_t think_ns = 0;
};

struct Workload {
    std::string why;

    /// Server ids are 1..servers; index 0 of the per-server vectors is unused.
    std::uint32_t servers = 0;
    std::vector<std::uint8_t> attacker;              ///< 1 = planted attacker
    std::vector<std::vector<std::uint8_t>> outcomes;  ///< each server's full sequence

    std::vector<Lane> preload;  ///< set-up lanes, sent concurrently before timing
    std::vector<Lane> ingest;   ///< timed closed-loop ingest clients

    /// Timed open-loop GET /assess schedule: offset from the timed
    /// phase's start and target server, in due order.
    std::vector<std::uint64_t> assess_due_ns;
    std::vector<std::uint32_t> assess_server;
    std::size_t assess_slots = 0;  ///< connections reserved for assess requests

    [[nodiscard]] std::size_t preload_records() const;
    [[nodiscard]] std::size_t timed_records() const;
    [[nodiscard]] std::size_t timed_batches() const;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build a workload.  `connections` is the total connection budget
/// (nproc): ingest lanes plus assess slots never exceed it.
/// \throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, std::size_t connections);

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_WORKLOAD_H
