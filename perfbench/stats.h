// Pure helpers of the benchmark: percentiles, the seeded open-loop arrival
// schedule, and span self time. No fxcpp state; perfbench_selftest pins
// each against hand-computed values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/rng.h"

namespace perfbench {

// Linear-interpolation percentile (q in [0, 1]) over an unsorted sample;
// 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Arrival offsets (seconds from phase start) of a Poisson process with
// `rate` arrivals per second over [0, seconds): exponential gaps drawn from
// a generator seeded by `seed` alone, so a seed fixes the schedule.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double seconds) {
  fxcpp::rt::Rng rng(seed);
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double now = 0.0;
  for (;;) {
    now += -std::log(1.0 - rng.uniform()) / rate;
    if (now >= seconds) break;
    t.push_back(now);
  }
  return t;
}

// One timed interval of a trace. `parent` indexes the enclosing span in the
// same vector (-1 for a root) and must precede it. Times are nanoseconds on
// one steady clock.
struct Span {
  std::string name;
  std::uint64_t id = 0;  // request (or call) the span belongs to
  int parent = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

// Self time of every span: its interval clipped to its parent's clipped
// interval, minus the union of its children's clipped intervals. Clipping
// makes the self times of a tree sum exactly to its root's duration even
// when spans measured on different threads overhang their parent.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  std::vector<std::int64_t> lo(n), hi(n);
  std::vector<std::vector<std::size_t>> kids(n);
  for (std::size_t i = 0; i < n; ++i) {
    lo[i] = spans[i].start;
    hi[i] = std::max(spans[i].start, spans[i].end);
    if (spans[i].parent >= 0) {
      const auto p = static_cast<std::size_t>(spans[i].parent);
      lo[i] = std::clamp(lo[i], lo[p], hi[p]);
      hi[i] = std::clamp(hi[i], lo[p], hi[p]);
      kids[p].push_back(i);
    }
  }
  std::vector<std::int64_t> self(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t k : kids[i]) iv.emplace_back(lo[k], hi[k]);
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi[i] - lo[i]) - covered;
  }
  return self;
}

}  // namespace perfbench
