#include "core/behavior_test.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/scratch.h"
#include "stats/reference_cache.h"

namespace hpr::core {

namespace {

/// Reduce a raw sequence to its newest-anchored window-count histogram in
/// the calling thread's scratch slot — compute_window_stats semantics
/// (window w covers [n-(w+1)m, n-wm), the oldest n mod m outcomes are
/// dropped) without the per-call WindowStats allocations.
template <typename Sequence, typename IsGood>
const stats::EmpiricalDistribution& fill_window_counts(const Sequence& seq,
                                                       std::uint32_t m,
                                                       IsGood is_good) {
    stats::EmpiricalDistribution& counts = assessment_scratch().window_counts;
    counts.reset(m);
    const std::size_t n = seq.size();
    const std::size_t windows = n / m;
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t begin = n - (w + 1) * m;
        std::uint32_t good = 0;
        for (std::size_t i = begin; i < begin + m; ++i) {
            if (is_good(seq[i])) ++good;
        }
        counts.add(good);
    }
    return counts;
}

}  // namespace

std::shared_ptr<stats::Calibrator> make_calibrator(const BehaviorTestConfig& config) {
    stats::CalibrationConfig cc;
    cc.confidence = config.confidence;
    cc.replications = config.replications;
    cc.kind = config.distance;
    cc.threads = config.calibration_threads;
    return std::make_shared<stats::Calibrator>(cc);
}

std::size_t warm_calibration(stats::Calibrator& calibrator, std::uint32_t window_size,
                             std::size_t max_windows, double p_lo, double p_hi) {
    if (window_size == 0) {
        throw std::invalid_argument("warm_calibration: window size must be > 0");
    }
    if (!(p_lo >= 0.0 && p_hi <= 1.0 && p_lo <= p_hi)) {
        throw std::invalid_argument(
            "warm_calibration: need 0 <= p_lo <= p_hi <= 1");
    }
    const auto& config = calibrator.config();
    const std::size_t top =
        std::min(std::max<std::size_t>(max_windows, 1), config.windows_cap);

    // Every distinct point of the calibrator's window grid up to `top`
    // (buckets are non-decreasing in k, so a change marks a new point).
    std::vector<std::size_t> windows;
    for (std::size_t k = 1; k <= top; ++k) {
        const std::size_t bucket = calibrator.effective_windows(k);
        if (windows.empty() || windows.back() != bucket) windows.push_back(bucket);
    }

    // Every p̂ bucket intersecting [p_lo, p_hi] (plus the interior-clamped
    // neighbours of degenerate endpoints, which make_key maps onto).
    const auto grid = static_cast<double>(config.p_grid);
    const auto lo_bucket = static_cast<std::uint32_t>(std::ceil(p_lo * grid));
    const auto hi_bucket = static_cast<std::uint32_t>(std::floor(p_hi * grid));
    std::vector<double> p_hats;
    for (std::uint32_t b = lo_bucket; b <= hi_bucket; ++b) {
        p_hats.push_back(static_cast<double>(b) / grid);
    }
    if (p_hats.empty()) p_hats.push_back((p_lo + p_hi) / 2.0);

    return calibrator.precalibrate(windows, {window_size}, p_hats);
}

BehaviorTest::BehaviorTest(BehaviorTestConfig config,
                           std::shared_ptr<stats::Calibrator> calibrator)
    : config_(config), calibrator_(std::move(calibrator)) {
    if (config_.window_size == 0) {
        throw std::invalid_argument("BehaviorTest: window size must be > 0");
    }
    if (config_.min_windows == 0) {
        throw std::invalid_argument("BehaviorTest: min_windows must be > 0");
    }
    if (!calibrator_) calibrator_ = make_calibrator(config_);
    if (config_.use_reference_cache) {
        reference_cache_ = config_.reference_cache
                               ? config_.reference_cache.get()
                               : &stats::ReferenceModelCache::process_wide();
    }
}

BehaviorTestResult BehaviorTest::test(std::span<const repsys::Feedback> feedbacks) const {
    return test(fill_window_counts(feedbacks, config_.window_size,
                                   [](const repsys::Feedback& f) { return f.good(); }));
}

BehaviorTestResult BehaviorTest::test(std::span<const std::uint8_t> outcomes) const {
    return test(fill_window_counts(outcomes, config_.window_size,
                                   [](std::uint8_t o) { return o != 0; }));
}

BehaviorTestResult BehaviorTest::test(const WindowStats& stats) const {
    if (stats.window_size != config_.window_size) {
        throw std::invalid_argument("BehaviorTest: window size mismatch");
    }
    return test(stats.distribution());
}

BehaviorTestResult BehaviorTest::test(const stats::EmpiricalDistribution& counts,
                                      double confidence_override) const {
    if (counts.max_value() != config_.window_size) {
        throw std::invalid_argument("BehaviorTest: distribution support mismatch");
    }
    BehaviorTestResult result;
    result.windows = counts.size();
    result.transactions_used = counts.size() * config_.window_size;
    if (counts.size() < config_.min_windows) {
        // Not enough evidence to reject the honest-player hypothesis.
        result.sufficient = false;
        result.passed = true;
        return result;
    }
    result.sufficient = true;
    const std::uint64_t good = counts.value_sum();
    const auto total = static_cast<std::uint64_t>(result.transactions_used);
    result.p_hat = total == 0 ? 0.0
                              : static_cast<double>(good) / static_cast<double>(total);
    if (reference_cache_ != nullptr) {
        // Shared model, bit-identical to the fresh construction below: the
        // cache keys on the exact double good/total (reference_cache.h).
        const auto reference =
            reference_cache_->reference(config_.window_size, good, total);
        result.distance = stats::distance(counts, *reference, config_.distance);
    } else {
        const stats::Binomial reference{config_.window_size, result.p_hat};
        result.distance = stats::distance(counts, reference, config_.distance);
    }
    const double confidence =
        confidence_override > 0.0 ? confidence_override : config_.confidence;
    result.threshold = calibrator_->threshold(counts.size(), config_.window_size,
                                              result.p_hat, confidence);
    result.passed = result.distance <= result.threshold;
    return result;
}

}  // namespace hpr::core
