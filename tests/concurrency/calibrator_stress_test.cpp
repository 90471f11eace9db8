// Multi-threaded stress test for the calibrator's lock-free hit path
// (stats/calibrate.h), meant to run under -DHPR_SANITIZE=thread as well
// as plain builds.  Eight threads look up a key space that is cold at the
// start, so index probes race the publication of fresh samples, and two
// window sizes share every (grid point, p̂ bucket) slot of the index.
// Every threshold must equal a serial calibrator's, bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "stats/calibrate.h"
#include "stats/rng.h"

namespace hpr::stats {
namespace {

constexpr std::size_t kThreads = 8;

struct Lookup {
    std::size_t windows;
    std::uint32_t m;
    double p_hat;
    double threshold;
};

TEST(CalibratorStress, ConcurrentProbesAndPublishesMatchSerialThresholds) {
    CalibrationConfig config;
    config.replications = 64;  // cheap cold keys: the race is the point
    config.threads = 1;
    Calibrator shared{config};
    constexpr std::size_t kLookups = 1500;
    std::vector<std::vector<Lookup>> seen(kThreads);
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng{0xca1bULL + t};
            seen[t].reserve(kLookups);
            for (std::size_t i = 0; i < kLookups; ++i) {
                const std::size_t windows = 3 + rng.uniform_int(std::uint64_t{38});
                const std::uint32_t m = rng.bernoulli(0.5) ? 10 : 20;
                const double p_hat =
                    static_cast<double>(200 + rng.uniform_int(std::uint64_t{16})) / 256.0;
                seen[t].push_back(
                    {windows, m, p_hat, shared.threshold(windows, m, p_hat)});
            }
        });
    }
    for (auto& worker : pool) worker.join();

    Calibrator serial{config};
    for (const auto& lookups : seen) {
        for (const Lookup& l : lookups) {
            ASSERT_EQ(l.threshold, serial.threshold(l.windows, l.m, l.p_hat))
                << "k " << l.windows << " m " << l.m << " p " << l.p_hat;
        }
    }
    const CalibratorStats stats = shared.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.single_flight_joins,
              kThreads * kLookups);
    EXPECT_EQ(stats.misses, stats.cache_entries);  // every key computed once
    EXPECT_EQ(stats.cache_entries, serial.cache_size());
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_GT(stats.hits, stats.misses);
}

TEST(CalibratorStress, ReloadingTheCacheBesideConcurrentHitsKeepsSamples) {
    const auto path =
        (std::filesystem::temp_directory_path() / "hpr_calibrator_reload_stress.cache")
            .string();
    CalibrationConfig config;
    config.replications = 64;
    config.threads = 1;
    std::vector<Lookup> keys;
    std::size_t saved_entries = 0;
    {
        Calibrator source{config};
        for (std::size_t windows = 3; windows <= 40; windows += 3) {
            for (const double p_hat : {0.8, 0.9, 0.95}) {
                keys.push_back({windows, 10, p_hat, source.threshold(windows, 10, p_hat)});
            }
        }
        source.save_cache(path);
        saved_entries = source.cache_size();
    }
    Calibrator shared{config};
    shared.load_cache(path);

    // Four readers hit the loaded keys while the main thread reloads the
    // same file: every reload meets resident keys, and must leave the
    // samples the readers are quantiling in place.
    constexpr std::size_t kReaders = 4;
    constexpr std::size_t kReloads = 5;
    std::atomic<bool> done{false};
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
            std::size_t i = t;
            do {
                const Lookup& key = keys[i++ % keys.size()];
                if (shared.threshold(key.windows, key.m, key.p_hat) != key.threshold) {
                    mismatches.fetch_add(1, std::memory_order_relaxed);
                }
            } while (!done.load(std::memory_order_acquire));
        });
    }
    for (std::size_t r = 0; r < kReloads; ++r) shared.load_cache(path);
    done.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();
    std::remove(path.c_str());

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(shared.cache_size(), saved_entries);
    EXPECT_EQ(shared.stats().misses, 0u);  // every lookup was a loaded key
}

}  // namespace
}  // namespace hpr::stats
