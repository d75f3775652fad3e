// Ablation: the §6.2-6.3 adaptivity mechanisms.
//
// Part 1 — checkpoint policies (§6.3): run total exchanges against
// drifting and regime-switching directories under never / halve-remaining
// / every-event rescheduling, with and without the deviation threshold.
//
// Part 2 — incremental refinement (§6.2): a schedule computed for stale
// network conditions is either kept, locally refined, or recomputed from
// scratch; the table reports schedule quality against the fresh matrix
// and the planning cost in LAP-solver-equivalent work.
#include <chrono>
#include <iostream>
#include <map>

#include "adaptive/checkpoint.hpp"
#include "adaptive/incremental.hpp"
#include "core/matching_scheduler.hpp"
#include "core/openshop_scheduler.hpp"
#include "fault/resilient.hpp"
#include "netmodel/generator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace hcs;

constexpr std::size_t kProcessors = 16;
constexpr std::size_t kRepetitions = 12;

double policy_mean(const Scheduler& scheduler,
                   const DirectoryService& directory,
                   const MessageMatrix& messages, CheckpointPolicy policy,
                   double threshold) {
  ResilientOptions options;
  options.adaptive.policy = policy;
  options.adaptive.reschedule_threshold = threshold;
  return run_resilient(scheduler, directory, messages, {}, options)
      .completion_time;
}

}  // namespace

int main() {
  std::cout << "Ablation 1: checkpoint rescheduling policies (§6.3), P = "
            << kProcessors << ", " << kRepetitions
            << " instances. Values are mean completion (s).\n"
            << "max-matching replans orders only; openshop is"
               " availability-aware (replans against current port skew).\n\n";

  const MatchingScheduler matching{MatchingObjective::kMaxWeight};
  const OpenShopScheduler openshop;
  Table policies{{"environment", "scheduler", "never", "halve",
                  "halve+thresh(10%)", "every-event"}};
  for (const char* environment : {"drift", "regime-switch"}) {
   for (const Scheduler* scheduler :
        std::initializer_list<const Scheduler*>{&matching, &openshop}) {
    RunningStats never, halve, halve_threshold, every;
    for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
      const std::uint64_t seed = 8000 + rep;
      const NetworkModel base = generate_network(kProcessors, seed);
      const MessageMatrix messages = uniform_messages(kProcessors, 2 * kMiB);

      std::unique_ptr<DirectoryService> directory;
      if (std::string_view(environment) == "drift") {
        DriftingDirectory::Options drift;
        drift.update_period_s = 2.0;
        drift.step_sigma = 0.35;
        drift.max_factor = 6.0;
        directory =
            std::make_unique<DriftingDirectory>(base, seed * 13, drift);
      } else {
        const NetworkModel after = generate_network(kProcessors, seed + 900);
        const double switch_time =
            CommMatrix(base, messages).lower_bound() * 0.4;
        std::map<double, NetworkModel> trace;
        trace.emplace(0.0, base);
        trace.emplace(switch_time, after);
        directory = std::make_unique<TraceDirectory>(std::move(trace));
      }

      never.add(policy_mean(*scheduler, *directory, messages,
                            CheckpointPolicy::kNever, 0));
      halve.add(policy_mean(*scheduler, *directory, messages,
                            CheckpointPolicy::kHalveRemaining, 0));
      halve_threshold.add(policy_mean(*scheduler, *directory, messages,
                                      CheckpointPolicy::kHalveRemaining, 0.10));
      every.add(policy_mean(*scheduler, *directory, messages,
                            CheckpointPolicy::kEveryEvent, 0));
    }
    policies.add_row({environment, std::string(scheduler->name()),
                      format_double(never.mean(), 2),
                      format_double(halve.mean(), 2),
                      format_double(halve_threshold.mean(), 2),
                      format_double(every.mean(), 2)});
   }
  }
  policies.print(std::cout);

  std::cout << "\nAblation 2: incremental refinement vs full rescheduling"
               " (§6.2). A max-matching schedule computed for a stale network"
               " is applied to the current one.\n\n";
  RunningStats stale_ratio, refined_ratio, fresh_ratio;
  RunningStats refine_us, fresh_us;
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    const ProblemInstance old_instance =
        make_instance(Scenario::kMixedMessages, kProcessors, 9000 + rep);
    const ProblemInstance new_instance =
        make_instance(Scenario::kMixedMessages, kProcessors, 9500 + rep);
    const CommMatrix old_comm{old_instance.network, old_instance.messages};
    const CommMatrix new_comm{new_instance.network, new_instance.messages};
    const double lb = new_comm.lower_bound();

    const StepSchedule stale =
        matching_steps(old_comm, MatchingObjective::kMaxWeight);
    stale_ratio.add(execute_async(stale, new_comm).completion_time() / lb);

    const auto refine_start = std::chrono::steady_clock::now();
    const RefineResult refined = refine_schedule(stale, new_comm);
    refine_us.add(std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - refine_start)
                      .count());
    refined_ratio.add(refined.completion_time / lb);

    const auto fresh_start = std::chrono::steady_clock::now();
    const StepSchedule fresh =
        matching_steps(new_comm, MatchingObjective::kMaxWeight);
    fresh_us.add(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - fresh_start)
                     .count());
    fresh_ratio.add(execute_async(fresh, new_comm).completion_time() / lb);
  }
  Table refinement{{"strategy", "completion / lower bound", "plan cost (us)"}};
  refinement.add_row({"keep stale schedule",
                      format_double(stale_ratio.mean(), 3), "0"});
  refinement.add_row({"incremental refine",
                      format_double(refined_ratio.mean(), 3),
                      format_double(refine_us.mean(), 0)});
  refinement.add_row({"reschedule from scratch",
                      format_double(fresh_ratio.mean(), 3),
                      format_double(fresh_us.mean(), 0)});
  refinement.print(std::cout);
  return 0;
}
