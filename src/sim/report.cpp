#include "sim/report.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace jwins::sim {

std::string format_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(bytes < 10 ? 2 : 1) << bytes << ' '
     << kUnits[unit];
  return os.str();
}

std::string format_seconds(double seconds) {
  std::ostringstream os;
  os << std::fixed;
  if (seconds < 120.0) {
    os << std::setprecision(1) << seconds << " s";
  } else {
    os << std::setprecision(1) << seconds / 60.0 << " min";
  }
  return os.str();
}

void print_series_csv(std::ostream& os, const std::string& label,
                      const ExperimentResult& result) {
  os << "# series: " << label << "\n";
  os << "round,sim_seconds,test_accuracy,test_loss,avg_bytes_per_node,"
        "avg_metadata_bytes_per_node\n";
  for (const MetricPoint& p : result.series) {
    os << p.round << ',' << std::fixed << std::setprecision(3) << p.sim_seconds
       << ',' << std::setprecision(4) << p.test_accuracy << ','
       << p.test_loss << ',' << std::setprecision(0) << p.avg_bytes_per_node
       << ',' << p.avg_metadata_bytes_per_node << "\n";
  }
}

void print_summary_row(std::ostream& os, const std::string& dataset,
                       const std::string& algorithm,
                       const ExperimentResult& result) {
  const double avg_bytes =
      result.series.empty() ? 0.0 : result.series.back().avg_bytes_per_node;
  os << std::left << std::setw(14) << dataset << std::setw(18) << algorithm
     << std::right << "acc=" << std::fixed << std::setprecision(1)
     << result.final_accuracy * 100.0 << "%  loss=" << std::setprecision(3)
     << result.final_loss << "  rounds=" << result.rounds_run
     << "  data/node=" << format_bytes(avg_bytes)
     << "  sim-time=" << format_seconds(result.sim_seconds) << "\n";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void write_result_json(std::ostream& os, const std::string& label,
                       const ExperimentResult& result) {
  os << "{\n";
  os << "  \"schema\": \"" << kResultSchema << "\",\n";
  os << "  \"label\": " << json_string(label) << ",\n";
  os << "  \"rounds_run\": " << result.rounds_run << ",\n";
  os << "  \"sim_seconds\": " << json_number(result.sim_seconds) << ",\n";
  os << "  \"final_accuracy\": " << json_number(result.final_accuracy) << ",\n";
  os << "  \"final_loss\": " << json_number(result.final_loss) << ",\n";
  os << "  \"reached_target\": " << (result.reached_target ? "true" : "false")
     << ",\n";
  os << "  \"mean_alpha\": " << json_number(result.mean_alpha) << ",\n";
  const net::NodeTraffic& t = result.total_traffic;
  os << "  \"traffic\": {\n";
  os << "    \"messages_sent\": " << t.messages_sent << ",\n";
  os << "    \"bytes_sent\": " << t.bytes_sent << ",\n";
  os << "    \"payload_bytes_sent\": " << t.payload_bytes_sent << ",\n";
  os << "    \"metadata_bytes_sent\": " << t.metadata_bytes_sent << "\n";
  os << "  },\n";
  const SimTimeBreakdown& st = result.sim_time;
  os << "  \"sim_time\": {\n";
  os << "    \"compute_seconds\": " << json_number(st.compute_seconds) << ",\n";
  os << "    \"comm_seconds\": " << json_number(st.comm_seconds) << ",\n";
  os << "    \"stragglers\": " << st.stragglers << ",\n";
  os << "    \"crashed_node_rounds\": " << st.crashed_node_rounds << ",\n";
  os << "    \"messages_dropped\": {\"total\": " << st.dropped_total
     << ", \"iid\": " << st.dropped_iid << ", \"edge\": " << st.dropped_edge
     << ", \"burst\": " << st.dropped_burst
     << ", \"crash\": " << st.dropped_crash << "}\n";
  os << "  },\n";
  const EventEngineStats& ee = result.event_engine;
  os << "  \"event_engine\": {\n";
  os << "    \"engine\": \"" << (ee.enabled ? "async" : "sync") << "\",\n";
  os << "    \"async_mode\": \"" << async_mode_name(ee.mode) << "\",\n";
  os << "    \"events_processed\": " << ee.events_processed << ",\n";
  os << "    \"max_queue_depth\": " << ee.max_queue_depth << ",\n";
  os << "    \"messages_delivered\": " << ee.messages_delivered << ",\n";
  os << "    \"messages_in_flight\": " << ee.messages_in_flight << ",\n";
  os << "    \"messages_stale_dropped\": " << ee.messages_stale_dropped
     << ",\n";
  os << "    \"staleness_overrides\": " << ee.staleness_overrides << ",\n";
  os << "    \"staleness_histogram\": [";
  for (std::size_t i = 0; i < ee.staleness_histogram.size(); ++i) {
    os << (i == 0 ? "" : ", ") << ee.staleness_histogram[i];
  }
  os << "],\n";
  os << "    \"effective_neighbors\": [";
  for (std::size_t i = 0; i < ee.effective_neighbors.size(); ++i) {
    os << (i == 0 ? "" : ", ") << ee.effective_neighbors[i];
  }
  os << "],\n";
  os << "    \"mean_contribution_age\": "
     << json_number(ee.mean_contribution_age()) << ",\n";
  os << "    \"edge_records_high_water\": " << ee.edge_records_high_water
     << ",\n";
  os << "    \"local_steps\": {\"min\": " << ee.local_steps_min()
     << ", \"max\": " << ee.local_steps_max()
     << ", \"mean\": " << json_number(ee.local_steps_mean()) << "}\n";
  os << "  },\n";
  const ByzantineStats& bz = result.byzantine;
  os << "  \"byzantine\": {\n";
  os << "    \"mode\": \"" << algo::byzantine_mode_name(bz.mode) << "\",\n";
  os << "    \"robust_agg\": \"" << core::robust_agg_name(bz.robust_agg)
     << "\",\n";
  os << "    \"attackers\": [";
  for (std::size_t i = 0; i < bz.attackers.size(); ++i) {
    os << (i == 0 ? "" : ", ") << bz.attackers[i];
  }
  os << "],\n";
  os << "    \"corrupted_messages\": " << bz.corrupted_messages << ",\n";
  os << "    \"trimmed_entries\": " << bz.trimmed_entries << ",\n";
  os << "    \"clipped_contributions\": " << bz.clipped_contributions << "\n";
  os << "  },\n";
  const PhaseTimings& w = result.wall;
  os << "  \"wall_seconds\": {\n";
  os << "    \"train\": " << json_number(w.train_seconds) << ",\n";
  os << "    \"share\": " << json_number(w.share_seconds) << ",\n";
  os << "    \"aggregate\": " << json_number(w.aggregate_seconds) << ",\n";
  os << "    \"evaluate\": " << json_number(w.evaluate_seconds) << ",\n";
  os << "    \"total\": " << json_number(w.total_seconds) << "\n";
  os << "  },\n";
  os << "  \"series\": [";
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const MetricPoint& p = result.series[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"round\": " << p.round
       << ", \"sim_seconds\": " << json_number(p.sim_seconds)
       << ", \"compute_seconds\": " << json_number(p.sim_compute_seconds)
       << ", \"comm_seconds\": " << json_number(p.sim_comm_seconds)
       << ", \"test_accuracy\": " << json_number(p.test_accuracy)
       << ", \"test_loss\": " << json_number(p.test_loss)
       << ", \"train_loss\": " << json_number(p.train_loss)
       << ", \"avg_bytes_per_node\": " << json_number(p.avg_bytes_per_node)
       << ", \"avg_metadata_bytes_per_node\": "
       << json_number(p.avg_metadata_bytes_per_node) << "}";
  }
  os << (result.series.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

}  // namespace jwins::sim
