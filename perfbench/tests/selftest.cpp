// Self-tests of the benchmark's own helpers. Exit code 0 = all passed.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "generators.hpp"
#include "pipeline.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void percentile_rule() {
  using perfbench::tail_percentile;
  std::vector<double> values;
  for (int k = 1; k <= 1000; ++k) values.push_back(k);
  expect(tail_percentile(values, 0.99) == 990.0, "p99 of 1..1000 is 990");
  values.pop_back();  // 999 samples: only 9 lie beyond rank 990
  expect(!tail_percentile(values, 0.99), "p99 refused with 9 beyond");
  expect(perfbench::min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  expect(perfbench::min_samples_for(0.90) == 100, "p90 needs 100 samples");
  std::vector<double> hundred(values.begin(), values.begin() + 100);
  expect(tail_percentile(hundred, 0.90) == 90.0, "p90 of 1..100 is 90");
  hundred.pop_back();
  expect(!tail_percentile(hundred, 0.90), "p90 refused with 99 samples");
  expect(perfbench::median_of({3, 1, 2}) == 2.0, "odd median");
  expect(perfbench::median_of({4, 1, 2, 3}) == 2.5, "even median");
}

void generators_are_deterministic() {
  expect(perfbench::spec_seeds(7, 8) == perfbench::spec_seeds(7, 8),
         "spec seeds repeat for one seed");
  expect(perfbench::spec_seeds(7, 8) != perfbench::spec_seeds(8, 8),
         "spec seeds differ across seeds");
  for (const char* workload : {"wide_hier", "fleet_mid"})
    expect(perfbench::pipeline_passes(workload, 11) ==
               perfbench::pipeline_passes(workload, 11),
           std::string(workload) + " passes repeat for one seed");
  const auto a = perfbench::zipf_trace(5, 3000);
  const auto b = perfbench::zipf_trace(5, 3000);
  bool same = a.matrices == b.matrices && a.requests.size() == b.requests.size();
  for (std::size_t i = 0; same && i < a.requests.size(); ++i)
    same = a.requests[i].matrix == b.requests[i].matrix &&
           a.requests[i].hierarchical == b.requests[i].hierarchical;
  expect(same, "zipf trace repeats for one seed");
  const auto c = perfbench::zipf_trace(6, 3000);
  expect(c.matrices != a.matrices, "zipf trace differs across seeds");
  std::size_t hierarchical = 0;
  for (const auto& r : a.requests) hierarchical += r.hierarchical ? 1 : 0;
  const double share = static_cast<double>(hierarchical) / 3000.0;
  expect(share > 0.17 && share < 0.23, "about 20% hierarchical requests");
  const auto d = perfbench::drift_trace(5, 100);
  expect(d.matrices == perfbench::drift_trace(5, 100).matrices,
         "drift trace repeats for one seed");
  expect(d.requests[19].now_s == 0.0 && d.requests[20].now_s == 1.0,
         "drift instants advance every 20 requests");
  expect(perfbench::poisson_offsets(3, 100.0, 50) ==
             perfbench::poisson_offsets(3, 100.0, 50),
         "arrivals repeat for one seed");
}

void specs_round_trip() {
  for (const char* workload : {"wide_hier", "fleet_mid"})
    for (const auto& pass : perfbench::pipeline_passes(workload, 3))
      for (const auto& spec : pass)
        expect(hcs::scenario::parse_scenario(
                   hcs::scenario::emit_scenario(spec)) == spec,
               spec.name + " round-trips through .scn");
}

void zipf_frequencies() {
  const perfbench::ZipfSampler zipf{1024, 1.0};
  hcs::Rng rng{99};
  std::vector<double> counts(1024, 0.0);
  const int draws = 400000;
  for (int k = 0; k < draws; ++k) counts[zipf.rank(rng.next_double())] += 1.0;
  // Frequency of rank r is proportional to 1 / r^s: rank 1 vs rank 2 and
  // rank 1 vs rank 10 at s = 1.
  expect(std::abs(counts[0] / counts[1] - 2.0) < 0.1, "f(1)/f(2) ~ 2");
  expect(std::abs(counts[0] / counts[9] - 10.0) < 1.0, "f(1)/f(10) ~ 10");
  // Least-squares slope of log f against log rank over the top 64 ranks.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const int n = 64;
  for (int r = 0; r < n; ++r) {
    const double x = std::log(r + 1.0), y = std::log(counts[r]);
    sx += x, sy += y, sxx += x * x, sxy += x * y;
  }
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  expect(std::abs(slope + 1.0) < 0.05, "log-log slope ~ -s");
}

void decomposition_arithmetic() {
  expect(perfbench::unattributed(10.0, {2.0, 3.0, 4.5}) == 0.5,
         "unattributed = pass - sum of stage self times");
  expect(perfbench::outside_worker(250.0, 180.0) == 70.0,
         "outside worker = client mean - worker mean");
  // Self times: a root with one child; the root's self time is its
  // duration minus the child's.
  perfbench::SpanLog log;
  const int root = log.open("root", -1, 0);
  const int child = log.open("child", root, 0);
  log.close(child);
  log.close(root);
  const auto self = log.self_by_name();
  const auto& spans = log.spans();
  const double root_len = spans[0].end_s - spans[0].start_s;
  const double child_len = spans[1].end_s - spans[1].start_s;
  expect(std::abs(self.at("root").at(0) - (root_len - child_len)) < 1e-12,
         "root self time excludes its child");
  expect(std::abs(self.at("child").at(0) - child_len) < 1e-12,
         "leaf self time is its duration");
}

}  // namespace

int main() {
  percentile_rule();
  generators_are_deterministic();
  specs_round_trip();
  zipf_frequencies();
  decomposition_arithmetic();
  if (failures == 0) std::printf("perfbench self-tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
