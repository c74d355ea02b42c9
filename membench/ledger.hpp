// The benchmark's own arithmetic, kept free of simulator types so that
// ledger_test.cpp can pin it down on hand-built inputs:
//
//   * tail percentiles under the "at least ten samples beyond" rule,
//   * layer self time from completed spans and their nesting depth,
//   * per-event and useful-outcome ratios,
//   * the failed_frac accounting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace membench {

/// Median of `v` (mean of the two middle values for an even count), 0 for
/// an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail percentile together with the quantile it was actually taken at.
struct Tail {
  double value = 0.0;
  double q = 0.0;     ///< quantile reported (<= the one asked for)
  std::size_t n = 0;  ///< sample count
};

/// Nearest-rank `q`-quantile of `v`, lowered when needed so that at least
/// `min_beyond` samples lie above the reported rank: a p99 needs 1000
/// samples, and with 200 the highest percentile honestly reportable is
/// p95. With `min_beyond` or fewer samples the median rank is reported.
inline Tail tail_percentile(std::vector<double> v, double q,
                            std::size_t min_beyond = 10) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank = [n](double quantile) {
    const double r = std::ceil(quantile * static_cast<double>(n));
    return std::min(n - 1, static_cast<std::size_t>(std::max(r, 1.0)) - 1);
  };
  std::size_t idx = rank(q);
  const std::size_t median_idx = rank(0.5);
  if (n <= min_beyond) {
    idx = median_idx;
  } else {
    idx = std::max(median_idx, std::min(idx, n - 1 - min_beyond));
  }
  t.value = v[idx];
  t.q = static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

/// `num / den`, or 0 when nothing was attempted.
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// The minimal span shape the self-time pass needs (obs::SpanRecord has
/// these fields and more).
struct SpanView {
  std::string name;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  ///< 1 = top level on its thread
};

struct SelfTimes {
  std::map<std::string, std::uint64_t> self_ns;  ///< per span name
  std::uint64_t top_level_ns = 0;  ///< summed duration of depth-1 spans
};

/// Exclusive time per span name. `spans` must be in completion order (the
/// order the span ring retains them): on one thread a span completes right
/// after all of its children, so the depth-(d+1) time accumulated since the
/// previous depth-d completion is exactly this span's children's time.
inline SelfTimes self_times(const std::vector<SpanView>& spans) {
  SelfTimes out;
  std::map<std::uint32_t, std::vector<std::uint64_t>> child_ns;  // by tid
  for (const SpanView& s : spans) {
    std::vector<std::uint64_t>& acc = child_ns[s.tid];
    if (acc.size() < s.depth + 2) acc.resize(s.depth + 2, 0);
    const std::uint64_t children = acc[s.depth + 1];
    acc[s.depth + 1] = 0;
    out.self_ns[s.name] += s.dur_ns > children ? s.dur_ns - children : 0;
    acc[s.depth] += s.dur_ns;
    if (s.depth == 1) out.top_level_ns += s.dur_ns;
  }
  return out;
}

/// failed_frac: every way a membership event can fail to take effect,
/// against the events attempted.
struct FailureTally {
  std::uint64_t attempted = 0;        ///< membership events replayed
  std::uint64_t never_installed = 0;  ///< joins still wanted, never installed
  std::uint64_t timeouts = 0;         ///< groups not converged at an audit
  std::uint64_t violations = 0;       ///< invariant / member-set violations

  std::uint64_t failed() const {
    return never_installed + timeouts + violations;
  }
  double frac() const {
    return ratio(static_cast<double>(failed()),
                 static_cast<double>(attempted));
  }
};

}  // namespace membench
