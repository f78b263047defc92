// Self-tests of the benchmark's own helpers (stats.h): percentiles against
// hand-computed vectors, the seeded Poisson schedule, and span self time
// on hand-built overlapping spans. run.py runs this before every benchmark
// run; any failure stops the run.
#include <cmath>
#include <cstdio>

#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentiles() {
  // Sorted {1,2,3,4,5}: p50 = 3; p90 at position 3.6 = 4 + 0.6 = 4.6.
  const std::vector<double> v{5, 1, 4, 2, 3};
  check(near(percentile(v, 0.5), 3.0), "p50 of 1..5");
  check(near(percentile(v, 0.9), 4.6), "p90 of 1..5");
  check(near(percentile(v, 0.0), 1.0) && near(percentile(v, 1.0), 5.0), "p0/p100 of 1..5");
  // {10, 20, 30, 40}: p50 at position 1.5 = 25; p90 at 2.7 = 37.
  const std::vector<double> w{40, 10, 30, 20};
  check(near(percentile(w, 0.5), 25.0), "p50 of 10..40");
  check(near(percentile(w, 0.9), 37.0), "p90 of 10..40");
  check(near(percentile({7.5}, 0.9), 7.5), "single sample");
  check(percentile({}, 0.5) == 0.0, "empty sample");
  check(near(median({3, 1, 2}), 2.0) && near(mean({1, 2, 6}), 3.0), "median/mean");
}

void test_poisson() {
  const auto a = poisson_schedule(42, 1000.0, 2.0);
  const auto b = poisson_schedule(42, 1000.0, 2.0);
  const auto c = poisson_schedule(43, 1000.0, 2.0);
  check(a == b, "same seed gives the same schedule");
  check(a != c, "another seed gives another schedule");
  bool increasing = !a.empty() && a.front() >= 0.0 && a.back() < 2.0;
  for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  check(increasing, "arrivals increase within [0, seconds)");
  // 2000 expected arrivals; a Poisson count is within 5 sigma (~224).
  check(std::fabs(static_cast<double>(a.size()) - 2000.0) < 224.0, "arrival count near rate*seconds");
}

void test_self_time() {
  // root [0,100): children A [10,40) and B [30,60) overlap (union 50), and
  // C [90,120) overhangs the root (clipped to [90,100)). A has one child
  // [20,50), clipped to A's [10,40) -> [20,40).
  std::vector<Span> s{
      {"root", 1, -1, 0, 100},  {"A", 1, 0, 10, 40},  {"B", 1, 0, 30, 60},
      {"C", 1, 0, 90, 120},     {"A1", 1, 1, 20, 50},
  };
  const auto self = self_times(s);
  check(self[0] == 100 - 50 - 10, "root self = duration minus union of children");
  check(self[1] == 30 - 20, "A self minus its clipped child");
  check(self[2] == 30 && self[3] == 10 && self[4] == 20, "leaf self = clipped duration");
  std::int64_t sum = 0;
  for (auto v : self) sum += v;
  // Self times sum to the root only for disjoint siblings: A and B share
  // [30,40), which both of them count.
  check(sum == 100 + 10, "overlap of siblings is counted by each of them");
  // Disjoint, nested children: self times sum exactly to the root.
  std::vector<Span> t{
      {"req", 2, -1, 0, 1000}, {"queue", 2, 0, 0, 300}, {"service", 2, 0, 300, 900},
      {"run", 2, 2, 350, 850}, {"node", 2, 3, 400, 600}, {"node", 2, 3, 600, 800},
  };
  const auto st = self_times(t);
  std::int64_t total = 0;
  for (auto v : st) total += v;
  check(total == 1000, "nested disjoint spans sum to the root duration");
  check(st[0] == 100 && st[2] == 100 && st[3] == 100, "self of req/service/run");
}

}  // namespace

int main() {
  test_percentiles();
  test_poisson();
  test_self_time();
  if (failures) return 1;
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
