// Golden digest of the §3.3 suffix ladder (core/online.h, core/multi_test.h).
//
// A seeded population in the daemon benchmark's mix — honest servers with
// quality p drawn from [0.75, 0.98] plus hibernating attackers — is fed
// through the streaming OnlineScreener (horizon 64, Bonferroni) and the
// batch MultiTest.  Every stage's (distance, ε, p̂) is hashed by bit
// pattern, together with every screener's final state and every batch
// verdict.  The pinned value was computed before the ladder's lookups
// (calibration window grid, calibration hit path) were optimised, so a
// match proves the optimised code bit-identical to the original, not
// merely self-consistent.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/multi_test.h"
#include "core/online.h"
#include "obs/trace.h"
#include "sim/generators.h"
#include "stats/rng.h"

namespace hpr::core {
namespace {

/// Pinned digest of the whole run below.
constexpr std::uint64_t kGoldenDigest = 0x307da962331f589eULL;

/// FNV-1a over 64-bit words.
class Digest {
public:
    void add(std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (word >> (8 * byte)) & 0xffU;
            hash_ *= 0x100000001b3ULL;
        }
    }
    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
    void add(bool value) { add(std::uint64_t{value ? 1U : 0U}); }
    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Honest quality spread and attacker shape of the daemon benchmark.
constexpr double kHonestPLow = 0.75;
constexpr double kHonestPHigh = 0.98;

/// Hibernating attacker: 30 % honest at p = 0.95 (whole windows of 10),
/// then exactly 2 of every 10 transactions bad.
std::vector<std::uint8_t> attacker_outcomes(std::size_t n, stats::Rng& rng) {
    const std::size_t honest = (n * 3 / 10) / 10 * 10;
    std::vector<std::uint8_t> out = sim::honest_outcomes(honest, 0.95, rng);
    const std::vector<std::uint8_t> attack =
        sim::periodic_outcomes(n - honest, 10, 0.2, rng);
    out.insert(out.end(), attack.begin(), attack.end());
    return out;
}

std::vector<std::vector<std::uint8_t>> population() {
    constexpr std::size_t kServers = 64;
    stats::Rng rng{20080617};
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t s = 0; s < kServers; ++s) {
        stats::Rng server_rng = rng.split();
        const std::size_t n = 200 + server_rng.uniform_int(std::uint64_t{2800});
        if (s % 8 == 3) {
            out.push_back(attacker_outcomes(n, server_rng));
        } else {
            const double p = server_rng.uniform(kHonestPLow, kHonestPHigh);
            out.push_back(sim::honest_outcomes(n, p, server_rng));
        }
    }
    return out;
}

/// Restores the process-wide tracer's switches on scope exit.
class TracerGuard {
public:
    TracerGuard()
        : enabled_(obs::default_tracer().active()),
          rate_(obs::default_tracer().sample_rate()) {
        obs::default_tracer().set_sample_rate(1.0);
        obs::default_tracer().set_enabled(true);
        (void)obs::default_tracer().ring().drain();
    }
    ~TracerGuard() {
        (void)obs::default_tracer().ring().drain();
        obs::default_tracer().set_enabled(enabled_);
        obs::default_tracer().set_sample_rate(rate_);
    }
    TracerGuard(const TracerGuard&) = delete;
    TracerGuard& operator=(const TracerGuard&) = delete;

private:
    bool enabled_;
    double rate_;
};

void add_stage(Digest& digest, double distance, double epsilon, double p_hat,
               bool passed) {
    digest.add(distance);
    digest.add(epsilon);
    digest.add(p_hat);
    digest.add(passed);
}

TEST(LadderGolden, StreamingAndBatchLaddersMatchThePinnedDigest) {
    if (!obs::enabled()) GTEST_SKIP() << "stage evidence needs the obs layer";
    BehaviorTestConfig base;
    base.calibration_threads = 2;
    const auto calibrator = make_calibrator(base);
    const auto servers = population();
    Digest digest;
    std::size_t stages = 0;

    {
        // Streaming: every evaluation's stage evidence comes from its
        // decision record (sample rate 1, ring drained after each one).
        const TracerGuard tracer;
        OnlineScreenerConfig config;
        config.test.base = base;
        config.test.bonferroni = true;
        config.max_windows = 64;
        for (const auto& outcomes : servers) {
            OnlineScreener screener{config, calibrator};
            for (const std::uint8_t outcome : outcomes) {
                const std::size_t before = screener.evaluations();
                screener.observe(outcome != 0);
                if (screener.evaluations() == before) continue;
                for (const obs::DecisionRecord& record :
                     obs::default_tracer().ring().drain()) {
                    for (const obs::StageEvidence& stage : record.stages) {
                        digest.add(stage.windows);
                        add_stage(digest, stage.distance, stage.epsilon,
                                  stage.p_hat, stage.passed);
                        ++stages;
                    }
                }
                digest.add(std::uint64_t{static_cast<std::uint8_t>(screener.state())});
            }
            digest.add(std::uint64_t{static_cast<std::uint8_t>(screener.state())});
            digest.add(screener.evaluations());
        }
    }
    ASSERT_GT(stages, 150'000u) << stages;

    // Batch: the whole history of every server, all stages collected.
    MultiTestConfig config;
    config.base = base;
    config.bonferroni = true;
    config.stop_on_failure = false;
    config.collect_details = true;
    const MultiTest tester{config, calibrator};
    std::size_t failed = 0;
    for (const auto& outcomes : servers) {
        const MultiTestResult result = tester.test(std::span<const std::uint8_t>{outcomes});
        for (const BehaviorTestResult& stage : result.details) {
            digest.add(stage.windows);
            add_stage(digest, stage.distance, stage.threshold, stage.p_hat,
                      stage.passed);
        }
        digest.add(result.passed);
        digest.add(result.stages_run);
        if (!result.passed) ++failed;
    }
    // The attackers (every eighth server) are caught in batch.
    EXPECT_GE(failed, servers.size() / 8);

    EXPECT_EQ(digest.value(), kGoldenDigest)
        << std::hex << "digest 0x" << digest.value();
}

}  // namespace
}  // namespace hpr::core
