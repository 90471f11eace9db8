#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "sim/generators.h"
#include "stats/rng.h"

namespace daemon_bench {

namespace {

namespace sim = hpr::sim;
namespace stats = hpr::stats;

constexpr std::uint64_t kNsPerSecond = 1'000'000'000;

/// Share of planted attackers in every population.
constexpr double kAttackerShare = 0.05;

/// Records per preload request (well under the daemon's record cap).
constexpr std::size_t kPreloadBatchRecords = 8192;

/// Honest servers draw their quality p uniformly from this spread.
constexpr double kHonestPLow = 0.75;
constexpr double kHonestPHigh = 0.98;

/// A hibernating attacker: an honest stretch (30 % of its history, whole
/// windows of 10) at p = 0.95, then periodic_outcomes flipping exactly 2
/// of every 10 transactions bad.
std::vector<std::uint8_t> attacker_outcomes(std::size_t n, stats::Rng& rng) {
    const std::size_t honest = (n * 3 / 10) / 10 * 10;
    std::vector<std::uint8_t> out = sim::honest_outcomes(honest, 0.95, rng);
    const std::vector<std::uint8_t> attack =
        sim::periodic_outcomes(n - honest, 10, 0.2, rng);
    out.insert(out.end(), attack.begin(), attack.end());
    return out;
}

/// Plant attackers and draw every server's full outcome sequence of the
/// given length.  Server ids are 1..lengths.size()-1.
void draw_population(Workload& w, const std::vector<std::size_t>& lengths,
                     stats::Rng& rng) {
    w.attacker.assign(w.servers + 1, 0);
    w.outcomes.assign(w.servers + 1, {});
    for (std::uint32_t s = 1; s <= w.servers; ++s) {
        stats::Rng server_rng = rng.split();
        w.attacker[s] = server_rng.bernoulli(kAttackerShare) ? 1 : 0;
        if (w.attacker[s]) {
            w.outcomes[s] = attacker_outcomes(lengths[s], server_rng);
        } else {
            const double p = server_rng.uniform(kHonestPLow, kHonestPHigh);
            w.outcomes[s] = sim::honest_outcomes(lengths[s], p, server_rng);
        }
    }
}

void append_number(std::string& out, std::uint64_t value) {
    char digits[24];
    const auto result = std::to_chars(digits, digits + sizeof digits, value);
    out.append(digits, result.ptr);
}

/// Render a batch's wire body: one `server_id timestamp outcome` line per
/// record (the POST /ingest line protocol).
void render(Batch& batch) {
    batch.body.clear();
    batch.body.reserve(batch.records.size() * 18);
    for (const Record& r : batch.records) {
        append_number(batch.body, r.server);
        batch.body += ' ';
        append_number(batch.body, r.time);
        batch.body += r.outcome ? " 1\n" : " 0\n";
    }
}

/// Cursor over every server's outcome sequence: hands out each server's
/// next record in timestamp order.
class RecordCursor {
public:
    explicit RecordCursor(const Workload& w) : w_(w), next_(w.servers + 1, 0) {}

    Record next(std::uint32_t server) {
        const std::uint32_t index = next_[server]++;
        return Record{server, index + 1, w_.outcomes[server].at(index)};
    }

private:
    const Workload& w_;
    std::vector<std::uint32_t> next_;
};

/// Single-server preload batches: every server's first `counts[s]`
/// records, split into kPreloadBatchRecords chunks, on lane s % lanes.
std::vector<Lane> preload_by_server(const Workload& w,
                                    const std::vector<std::size_t>& counts,
                                    RecordCursor& cursor, std::size_t lanes) {
    std::vector<Lane> out(lanes);
    for (std::uint32_t s = 1; s <= w.servers; ++s) {
        for (std::size_t done = 0; done < counts[s];) {
            const std::size_t take = std::min(kPreloadBatchRecords, counts[s] - done);
            Batch batch;
            batch.records.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
                batch.records.push_back(cursor.next(s));
            }
            render(batch);
            out[s % lanes].batches.push_back(std::move(batch));
            done += take;
        }
    }
    return out;
}

/// Sampler of an index in [0, weights.size()) proportional to weight.
class WeightedPick {
public:
    explicit WeightedPick(const std::vector<double>& weights) : cdf_(weights.size()) {
        std::partial_sum(weights.begin(), weights.end(), cdf_.begin());
    }
    std::size_t operator()(stats::Rng& rng) const {
        const double u = rng.uniform() * cdf_.back();
        const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                     cdf_.size() - 1);
    }

private:
    std::vector<double> cdf_;
};

/// Evenly spaced open-loop schedule of `count` requests at `rate` per second.
void schedule_assess(Workload& w, std::size_t count, double rate,
                     const std::vector<std::uint32_t>& targets) {
    w.assess_due_ns.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        w.assess_due_ns[i] = static_cast<std::uint64_t>(
            static_cast<double>(i) * static_cast<double>(kNsPerSecond) / rate);
    }
    w.assess_server = targets;
}

std::size_t scaled(double per_second, double seconds) {
    return static_cast<std::size_t>(std::ceil(per_second * seconds));
}

// ---------------------------------------------------------------------------
// ingest_wide: two flat-out clients, 250-record batches over 100k servers
// with Zipf-skewed volume; a 400/s assess trickle.  Two flat-out writers
// keep the one event-loop thread busy, so an /assess waits behind about
// two handler calls.  At 2,000 records a batch (~6.5 ms a call) the two
// assess connections could serve only ~60 requests/s and the open loop's
// backlog would grow without bound; at 250 they stay about a quarter busy
// at 400/s, which gives each phase 2,400 assess samples (two tail windows).

Workload make_ingest_wide(std::uint64_t seed, double seconds, std::size_t connections) {
    constexpr std::uint32_t kServers = 100'000;
    constexpr double kZipfExponent = 0.5;
    constexpr std::size_t kPreloadRecords = 500'000;
    constexpr double kTimedRecordsPerSecond = 300'000;
    constexpr std::size_t kBatchRecords = 250;
    constexpr double kAssessPerSecond = 400;
    constexpr std::size_t kClients = 2;

    Workload w;
    w.servers = kServers;
    stats::Rng rng{seed};

    // Zipf volume over servers, with the popularity ranks shuffled onto ids.
    std::vector<double> weights(kServers);
    for (std::size_t r = 0; r < kServers; ++r) {
        weights[r] = std::pow(static_cast<double>(r + 1), -kZipfExponent);
    }
    std::vector<std::uint32_t> id_of_rank(kServers);
    std::iota(id_of_rank.begin(), id_of_rank.end(), 1U);
    rng.shuffle(id_of_rank);
    const WeightedPick pick{weights};

    const std::size_t timed = scaled(kTimedRecordsPerSecond, seconds);
    std::vector<std::uint32_t> picks(kPreloadRecords + timed);
    std::vector<std::size_t> lengths(kServers + 1, 0);
    for (auto& p : picks) {
        p = id_of_rank[pick(rng)];
        ++lengths[p];
    }
    draw_population(w, lengths, rng);
    RecordCursor cursor{w};

    // Preload: the first picks, one lane per connection by server id.
    w.preload.resize(connections);
    std::vector<Batch> open(connections);
    const auto flush = [](Batch& batch, Lane& lane) {
        if (batch.records.empty()) return;
        render(batch);
        lane.batches.push_back(std::move(batch));
        batch = Batch{};
    };
    std::vector<std::uint8_t> touched(kServers + 1, 0);
    for (std::size_t i = 0; i < kPreloadRecords; ++i) {
        const std::uint32_t s = picks[i];
        touched[s] = 1;
        Batch& batch = open[s % connections];
        batch.records.push_back(cursor.next(s));
        if (batch.records.size() == kPreloadBatchRecords) {
            flush(batch, w.preload[s % connections]);
        }
    }
    for (std::size_t l = 0; l < connections; ++l) flush(open[l], w.preload[l]);

    // Timed: client c owns the servers with id % kClients == c.
    w.ingest.resize(kClients);
    open.assign(kClients, Batch{});
    for (std::size_t i = kPreloadRecords; i < picks.size(); ++i) {
        const std::uint32_t s = picks[i];
        Batch& batch = open[s % kClients];
        batch.records.push_back(cursor.next(s));
        if (batch.records.size() == kBatchRecords) flush(batch, w.ingest[s % kClients]);
    }
    for (std::size_t c = 0; c < kClients; ++c) flush(open[c], w.ingest[c]);

    // The trickle asks about servers the preload created, uniformly.
    std::vector<std::uint32_t> known;
    for (std::uint32_t s = 1; s <= kServers; ++s) {
        if (touched[s]) known.push_back(s);
    }
    const std::size_t assess = scaled(kAssessPerSecond, seconds);
    std::vector<std::uint32_t> targets(assess);
    for (auto& t : targets) t = known[rng.uniform_int(known.size())];
    schedule_assess(w, assess, kAssessPerSecond, targets);
    w.assess_slots = connections - kClients;
    return w;
}

// ---------------------------------------------------------------------------
// read_long: ~3M preloaded records over 2k servers with Zipf-spread
// lengths 500..100k; 1,000/s assess weighted by history length; one
// paced client adding 100-record batches.

Workload make_read_long(std::uint64_t seed, double seconds, std::size_t connections) {
    constexpr std::uint32_t kServers = 2'000;
    constexpr double kLengthExponent = 0.7;
    constexpr double kLongest = 100'000;
    constexpr double kShortest = 500;
    constexpr std::size_t kBatchRecords = 100;
    constexpr double kBatchesPerSecond = 400;
    constexpr std::uint64_t kThinkNs = 2'200'000;
    constexpr double kAssessPerSecond = 1'000;

    Workload w;
    w.servers = kServers;
    stats::Rng rng{seed};

    // The length profile is the same for every seed; the seed shuffles it
    // onto ids and draws the outcomes.
    std::vector<std::uint32_t> id_of_rank(kServers);
    std::iota(id_of_rank.begin(), id_of_rank.end(), 1U);
    rng.shuffle(id_of_rank);
    std::vector<std::size_t> preload(kServers + 1, 0);
    std::vector<double> weight(kServers + 1, 0.0);
    for (std::size_t r = 0; r < kServers; ++r) {
        const double length = std::clamp(
            std::round(kLongest * std::pow(static_cast<double>(r + 1), -kLengthExponent)),
            kShortest, kLongest);
        preload[id_of_rank[r]] = static_cast<std::size_t>(length);
        weight[id_of_rank[r]] = length;
    }
    const WeightedPick by_length{weight};

    const std::size_t batches = scaled(kBatchesPerSecond, seconds);
    std::vector<std::uint32_t> batch_server(batches);
    std::vector<std::size_t> lengths = preload;
    for (auto& s : batch_server) {
        s = static_cast<std::uint32_t>(by_length(rng));
        lengths[s] += kBatchRecords;
    }
    draw_population(w, lengths, rng);
    RecordCursor cursor{w};
    w.preload = preload_by_server(w, preload, cursor, connections);

    w.ingest.resize(1);
    w.ingest[0].think_ns = kThinkNs;
    for (const std::uint32_t s : batch_server) {
        Batch batch;
        for (std::size_t i = 0; i < kBatchRecords; ++i) batch.records.push_back(cursor.next(s));
        render(batch);
        w.ingest[0].batches.push_back(std::move(batch));
    }

    const std::size_t assess = scaled(kAssessPerSecond, seconds);
    std::vector<std::uint32_t> targets(assess);
    for (auto& t : targets) t = static_cast<std::uint32_t>(by_length(rng));
    schedule_assess(w, assess, kAssessPerSecond, targets);
    w.assess_slots = connections - 1;
    return w;
}

// ---------------------------------------------------------------------------
// mixed_burst: two paced clients posting large single-server batches
// between small ones, rotating over a pool of servers with a few thousand
// records each; 500/s assess over the same pool.  Client 0 sends one
// 11,000-record single-server burst, then kSmallPerBurst 500-record
// single-server batches; client 1 sends only such small batches.  The
// small batches give ingest_p99_ms its support (1,000 ingest requests made
// of bursts alone would be 11M records and ~25 s of handler time per run).
// They are single-server, like the bursts, because a batch scattered over
// every server misses cache on every record and its time follows the
// host's memory speed.  They are paced to keep the event loop about a
// quarter busy, because at a third busy the assess median sits near the
// share of requests that wait behind a handler and swings with it.

Workload make_mixed_burst(std::uint64_t seed, double seconds, std::size_t connections) {
    constexpr std::uint32_t kServers = 1'024;
    constexpr std::size_t kPreloadPerServer = 2'000;
    constexpr std::size_t kBurstRecords = 11'000;
    constexpr std::size_t kSmallRecords = 500;
    constexpr std::size_t kSmallPerBurst = 20;  // small batches after each burst
    constexpr double kBatchesPerSecondPerClient = 65;
    constexpr std::uint64_t kThinkNs = 13'000'000;
    constexpr double kAssessPerSecond = 500;
    constexpr std::size_t kClients = 2;

    Workload w;
    w.servers = kServers;
    stats::Rng rng{seed};

    // Client c owns the servers with id % kClients == c.  Client 0's bursts
    // walk its servers in a seeded rotation, one server per burst; each
    // small batch goes to one of the client's servers at random.  Only one
    // client bursts, so two bursts never stack into one longer stall.
    const std::size_t per_client = scaled(kBatchesPerSecondPerClient, seconds);
    std::vector<std::vector<std::uint32_t>> owned(kClients);
    for (std::uint32_t s = 1; s <= kServers; ++s) owned[s % kClients].push_back(s);
    std::vector<std::size_t> lengths(kServers + 1, kPreloadPerServer);
    lengths[0] = 0;
    // plan[c][b] lists the server of every record of client c's batch b.
    std::vector<std::vector<std::vector<std::uint32_t>>> plan(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        rng.shuffle(owned[c]);
        std::size_t bursts = 0;
        for (std::size_t b = 0; b < per_client; ++b) {
            std::vector<std::uint32_t> servers;
            if (c == 0 && b % (kSmallPerBurst + 1) == 0) {
                servers.assign(kBurstRecords, owned[c][bursts++ % owned[c].size()]);
            } else {
                servers.assign(kSmallRecords, owned[c][rng.uniform_int(owned[c].size())]);
            }
            for (const std::uint32_t s : servers) ++lengths[s];
            plan[c].push_back(std::move(servers));
        }
    }
    draw_population(w, lengths, rng);
    RecordCursor cursor{w};
    std::vector<std::size_t> preload(kServers + 1, kPreloadPerServer);
    preload[0] = 0;
    w.preload = preload_by_server(w, preload, cursor, connections);

    w.ingest.resize(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        w.ingest[c].think_ns = kThinkNs;
        for (const auto& servers : plan[c]) {
            Batch batch;
            batch.records.reserve(servers.size());
            for (const std::uint32_t s : servers) batch.records.push_back(cursor.next(s));
            render(batch);
            w.ingest[c].batches.push_back(std::move(batch));
        }
    }

    const std::size_t assess = scaled(kAssessPerSecond, seconds);
    std::vector<std::uint32_t> targets(assess);
    for (auto& t : targets) {
        t = static_cast<std::uint32_t>(1 + rng.uniform_int(std::uint64_t{kServers}));
    }
    schedule_assess(w, assess, kAssessPerSecond, targets);
    w.assess_slots = connections - kClients;
    return w;
}

std::size_t count_records(const std::vector<Lane>& lanes) {
    std::size_t total = 0;
    for (const Lane& lane : lanes) {
        for (const Batch& batch : lane.batches) total += batch.records.size();
    }
    return total;
}

}  // namespace

std::size_t Workload::preload_records() const { return count_records(preload); }
std::size_t Workload::timed_records() const { return count_records(ingest); }
std::size_t Workload::timed_batches() const {
    std::size_t total = 0;
    for (const Lane& lane : ingest) total += lane.batches.size();
    return total;
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"ingest_wide", "read_long",
                                                "mixed_burst"};
    return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds, std::size_t connections) {
    if (connections < 3) {
        throw std::invalid_argument("the workloads need at least 3 connections");
    }
    Workload w;
    if (name == "ingest_wide") {
        w = make_ingest_wide(seed, seconds, connections);
        w.why = "write-dominated: screener observe, commit fan-out across "
                "shards, cold per-server state";
    } else if (name == "read_long") {
        w = make_read_long(seed, seconds, connections);
        w.why = "read-dominated over long histories: /assess snapshot copy "
                "and O(n) phase-2 refold";
    } else if (name == "mixed_burst") {
        w = make_mixed_burst(seed, seconds, connections);
        w.why = "reads beside large writes: head-of-line blocking on the one "
                "event-loop thread";
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return w;
}

}  // namespace daemon_bench
