#include "core/schedule_stats.hpp"

#include <algorithm>
#include <ostream>

#include "util/error.hpp"

namespace hcs {

ScheduleStats analyze_schedule(const Schedule& schedule, const CommMatrix& comm) {
  const std::size_t n = schedule.processor_count();
  check(comm.processor_count() == n, "analyze_schedule: size mismatch");

  ScheduleStats stats;
  stats.completion_s = schedule.completion_time();
  stats.lower_bound_s = comm.lower_bound();
  stats.ratio_to_lower_bound =
      stats.lower_bound_s > 0.0 ? stats.completion_s / stats.lower_bound_s : 1.0;

  stats.processors.resize(n);
  for (std::size_t p = 0; p < n; ++p) stats.processors[p].processor = p;
  // Busy times sum in port order; a re-visited port restarts its sum, and
  // the latest finish is a max, which a re-visit leaves unchanged.
  schedule.for_each_in_port_order(
      [&stats](PortSide side, std::size_t port, const ScheduledEvent& event) {
        ProcessorStats& row = stats.processors[port];
        (side == PortSide::kSend ? row.send_busy_s : row.recv_busy_s) +=
            event.duration();
        row.last_active_s = std::max(row.last_active_s, event.finish_s);
      },
      [&stats](PortSide side, std::size_t port) {
        ProcessorStats& row = stats.processors[port];
        (side == PortSide::kSend ? row.send_busy_s : row.recv_busy_s) = 0.0;
      });

  const std::vector<double> recv_totals = comm.recv_totals();
  double bottleneck_total = -1.0;
  double utilization_sum = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    ProcessorStats& row = stats.processors[p];
    if (stats.completion_s > 0.0) {
      row.send_utilization = row.send_busy_s / stats.completion_s;
      row.recv_utilization = row.recv_busy_s / stats.completion_s;
    }
    utilization_sum += row.send_utilization + row.recv_utilization;

    const double port_total = std::max(comm.send_total(p), recv_totals[p]);
    if (port_total > bottleneck_total) {
      bottleneck_total = port_total;
      stats.bottleneck_processor = p;
    }
  }
  stats.mean_utilization =
      n > 0 ? utilization_sum / (2.0 * static_cast<double>(n)) : 0.0;
  return stats;
}

Table stats_table(const ScheduleStats& stats) {
  Table table{{"processor", "send busy (s)", "send util", "recv busy (s)",
               "recv util", "last active (s)"}};
  for (const ProcessorStats& row : stats.processors) {
    std::string label = "P" + std::to_string(row.processor);
    if (row.processor == stats.bottleneck_processor) label += " *";
    table.add_row({label, format_double(row.send_busy_s, 2),
                   format_double(row.send_utilization, 3),
                   format_double(row.recv_busy_s, 2),
                   format_double(row.recv_utilization, 3),
                   format_double(row.last_active_s, 2)});
  }
  return table;
}

void write_gantt_csv(std::ostream& out, const Schedule& schedule) {
  out << "src,dst,start_s,finish_s,duration_s\n";
  std::vector<ScheduledEvent> events = schedule.events();
  std::sort(events.begin(), events.end(),
            [](const ScheduledEvent& a, const ScheduledEvent& b) {
              return a.start_s < b.start_s ||
                     (a.start_s == b.start_s && a.src < b.src);
            });
  for (const ScheduledEvent& event : events)
    out << event.src << ',' << event.dst << ','
        << format_double(event.start_s, 6) << ','
        << format_double(event.finish_s, 6) << ','
        << format_double(event.duration(), 6) << '\n';
}

}  // namespace hcs
