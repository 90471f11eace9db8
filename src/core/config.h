#ifndef HPR_CORE_CONFIG_H
#define HPR_CORE_CONFIG_H

/// \file config.h
/// Tunable parameters of the behavior-testing algorithms (paper §3).

#include <cstddef>
#include <cstdint>
#include <memory>

#include "stats/distance.h"

namespace hpr::stats {
class ReferenceModelCache;
}  // namespace hpr::stats

namespace hpr::core {

/// Parameters of the single behavior test (paper §3.2).
struct BehaviorTestConfig {
    /// Transactions per window (m).  The paper's experiments use 10.
    std::uint32_t window_size = 10;

    /// Confidence level used to calibrate the distance threshold ε
    /// (the paper selects ε at the 95% confidence interval).
    double confidence = 0.95;

    /// Monte-Carlo replications per calibration key.
    std::size_t replications = 1000;

    /// Minimum number of complete windows required before the test is
    /// considered statistically meaningful.  Histories shorter than
    /// min_windows * window_size cannot be screened (paper §7 discusses
    /// why short histories are inherently undecidable).
    std::size_t min_windows = 3;

    /// Distance functional; the paper uses the L1 norm.
    stats::DistanceKind distance = stats::DistanceKind::kL1;

    /// Worker threads for Monte-Carlo calibration (0 = one per hardware
    /// thread).  Purely a speed knob: calibrated thresholds are
    /// bit-identical at any thread count.
    std::size_t calibration_threads = 0;

    /// Reuse Binomial reference models through the shared
    /// stats::ReferenceModelCache instead of rebuilding the pmf table on
    /// every test.  Purely a speed knob: the cache keys on the *exact*
    /// double p̂, so cached results are bit-identical to fresh
    /// construction (verdicts, distances and margins cannot change).
    bool use_reference_cache = true;

    /// Cache instance to use; null means the process-wide cache
    /// (stats::ReferenceModelCache::process_wide()).  Benches and tests
    /// inject a private instance to control capacity and observe stats.
    std::shared_ptr<stats::ReferenceModelCache> reference_cache;
};

/// Parameters of multi-testing (paper §3.3): the single test is repeated
/// over the most recent (n - j*step) transactions for j = 0, 1, 2, ...
/// until fewer than min_windows windows remain.
struct MultiTestConfig {
    BehaviorTestConfig base{};

    /// Suffix shrink step in transactions (the constant k of §3.3).
    /// 0 means "2 * window_size".  Values are rounded up to a multiple of
    /// the window size so that window boundaries align across suffixes —
    /// the alignment that enables the O(n) incremental algorithm of §5.5.
    std::size_t step = 0;

    /// Stop at the first failing suffix (the screening use case) instead
    /// of evaluating every suffix (the diagnostics use case).
    bool stop_on_failure = true;

    /// Record a per-suffix BehaviorTestResult in the MultiTestResult.
    bool collect_details = false;

    /// Family-wise false-alarm control.  Multi-testing runs many
    /// (dependent) suffix tests, so a naive per-stage confidence of 95%
    /// inflates the chance of flagging an honest long history.  With this
    /// flag each stage runs at confidence 1 - (1 - confidence)/stages
    /// (Bonferroni), keeping the family-wise false-positive rate near the
    /// configured level.  Off by default — the paper evaluates the
    /// uncorrected scheme.
    bool bonferroni = false;

    /// Effective step after applying defaults and window alignment.
    [[nodiscard]] std::size_t effective_step() const noexcept {
        const std::size_t m = base.window_size;
        std::size_t s = step == 0 ? 2 * m : step;
        const std::size_t rem = s % m;
        if (rem != 0) s += m - rem;
        return s;
    }
};

}  // namespace hpr::core

#endif  // HPR_CORE_CONFIG_H
