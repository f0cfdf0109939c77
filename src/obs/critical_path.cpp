#include "obs/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "obs/json.hpp"

namespace grasp::obs {

namespace {

enum class Cause : std::uint8_t {
  None,         // uncategorised span (shard/job roots, unknown names)
  Compute,
  Calibration,
  Failover,
  Recovery,     // checkpoint passes: detection/recovery machinery time
};

Cause classify(const char* name) {
  if (std::strcmp(name, "chunk") == 0 || std::strcmp(name, "probe") == 0 ||
      std::strcmp(name, "item") == 0 || std::strcmp(name, "stage") == 0)
    return Cause::Compute;
  if (std::strcmp(name, "calibration") == 0) return Cause::Calibration;
  if (std::strcmp(name, "failover") == 0 ||
      std::strcmp(name, "handshake") == 0)
    return Cause::Failover;
  if (std::strcmp(name, "checkpoint_pass") == 0) return Cause::Recovery;
  return Cause::None;
}

bool is_marker_instant(const SpanRecord& rec) {
  return rec.instant && (std::strcmp(rec.name, "crash_detected") == 0 ||
                         std::strcmp(rec.name, "rollback") == 0 ||
                         std::strcmp(rec.name, "slo_breach") == 0);
}

bool is_loss_end(const SpanRecord& rec) {
  return !rec.instant && !rec.open() &&
         (std::strcmp(rec.detail, "lost") == 0 ||
          std::strcmp(rec.detail, "zombie") == 0 ||
          std::strcmp(rec.detail, "evicted") == 0);
}

/// Blame the window [w0, w1] using only the spans behind `indices`.
/// Open spans are treated as ending at w1; everything is clipped to the
/// window.  The elementary intervals partition [w0, w1] exactly, so the
/// breakdown sums to w1 - w0 up to floating-point rounding.
BlameBreakdown sweep(const std::vector<SpanRecord>& spans,
                     const std::vector<std::size_t>& indices, double w0,
                     double w1) {
  BlameBreakdown out;
  if (!(w1 > w0)) return out;

  struct Edge {
    double at;
    int delta;  // +1 opens, -1 closes
    Cause cause;
  };
  std::vector<Edge> edges;
  std::vector<double> activity_begins;  // any categorised span's begin
  std::vector<double> compute_ends;
  std::vector<double> markers;

  for (const std::size_t i : indices) {
    const SpanRecord& rec = spans[i];
    if (rec.instant) {
      if (is_marker_instant(rec) && rec.begin_s >= w0 && rec.begin_s <= w1)
        markers.push_back(rec.begin_s);
      continue;
    }
    if (is_loss_end(rec) && rec.end_s >= w0 && rec.end_s <= w1)
      markers.push_back(rec.end_s);
    const Cause cause = classify(rec.name);
    if (cause == Cause::None) continue;
    const double b = std::max(rec.begin_s, w0);
    const double e = std::min(rec.open() ? w1 : rec.end_s, w1);
    if (e <= b) continue;
    edges.push_back({b, +1, cause});
    edges.push_back({e, -1, cause});
    activity_begins.push_back(b);
    if (cause == Cause::Compute) compute_ends.push_back(e);
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.at < b.at; });
  std::sort(activity_begins.begin(), activity_begins.end());
  std::sort(compute_ends.begin(), compute_ends.end());
  std::sort(markers.begin(), markers.end());

  // Elementary boundaries: the window ends plus every edge time.
  std::vector<double> bounds;
  bounds.reserve(edges.size() + 2);
  bounds.push_back(w0);
  for (const Edge& e : edges)
    if (e.at > w0 && e.at < w1) bounds.push_back(e.at);
  bounds.push_back(w1);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::size_t next_edge = 0;
  int n_compute = 0, n_cal = 0, n_failover = 0, n_recovery = 0;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const double a = bounds[b];
    const double z = bounds[b + 1];
    // Half-open intervals: spans ending at `a` are inactive on [a, z),
    // spans beginning at `a` are active — apply every edge at time <= a.
    while (next_edge < edges.size() && edges[next_edge].at <= a) {
      const Edge& e = edges[next_edge++];
      switch (e.cause) {
        case Cause::Compute: n_compute += e.delta; break;
        case Cause::Calibration: n_cal += e.delta; break;
        case Cause::Failover: n_failover += e.delta; break;
        case Cause::Recovery: n_recovery += e.delta; break;
        case Cause::None: break;
      }
    }
    const double dur = z - a;
    if (n_failover > 0) {
      out.failover_s += dur;
    } else if (n_cal > 0) {
      out.calibration_s += dur;
    } else if (n_recovery > 0) {
      out.detection_recovery_s += dur;
    } else if (n_compute > 0) {
      out.compute_s += dur;
    } else {
      // Nothing categorised is running: a gap.  Tail when no categorised
      // span ever begins again; recovery when a crash marker is the most
      // recent thing that happened since compute stopped; otherwise a
      // dispatch/queueing wait.
      const bool has_next =
          std::lower_bound(activity_begins.begin(), activity_begins.end(),
                           z) != activity_begins.end();
      if (!has_next) {
        out.idle_tail_s += dur;
        continue;
      }
      const auto last_le = [a](const std::vector<double>& v) {
        const auto it = std::upper_bound(v.begin(), v.end(), a);
        return it == v.begin() ? -1.0 : *(it - 1);
      };
      const double last_marker = last_le(markers);
      const double last_compute = last_le(compute_ends);
      if (last_marker >= 0.0 && last_marker >= last_compute)
        out.detection_recovery_s += dur;
      else
        out.dispatch_wait_s += dur;
    }
  }
  return out;
}

std::string node_key(NodeId node) {
  return "node." + std::to_string(node.value);
}

std::string group_key(const SpanRecord& root) {
  return std::string(root.name) + "." +
         std::to_string(static_cast<long long>(root.value));
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

void append_breakdown_json(std::ostringstream& out, const BlameBreakdown& b) {
  out << "{\"calibration_s\": " << b.calibration_s
      << ", \"dispatch_wait_s\": " << b.dispatch_wait_s
      << ", \"compute_s\": " << b.compute_s
      << ", \"detection_recovery_s\": " << b.detection_recovery_s
      << ", \"failover_s\": " << b.failover_s
      << ", \"idle_tail_s\": " << b.idle_tail_s << "}";
}

}  // namespace

BlameReport analyze_blame(const std::vector<SpanRecord>& spans,
                          double makespan_s) {
  BlameReport report;
  report.makespan_s = makespan_s;
  if (spans.empty() || !(makespan_s > 0.0)) return report;

  // ---- top-level partition of [0, makespan].
  std::vector<std::size_t> all(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) all[i] = i;
  report.total = sweep(spans, all, 0.0, makespan_s);

  // ---- grafted subtrees: every "shard"/"job" root owns the records whose
  // parent chain reaches it.  import_tree appends subtrees in id order, so
  // one forward pass over (id -> root) resolves membership.
  std::map<SpanId, std::size_t> root_of;       // span id -> groups index
  std::vector<std::vector<std::size_t>> group_spans;
  std::vector<std::size_t> group_root;         // groups index -> span index
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& rec = spans[i];
    const bool is_group_root = !rec.instant &&
                               (std::strcmp(rec.name, "shard") == 0 ||
                                std::strcmp(rec.name, "job") == 0);
    if (is_group_root) {
      root_of[rec.id] = report.groups.size();
      group_root.push_back(i);
      BlameGroup g;
      g.key = group_key(rec);
      const double e = rec.open() ? makespan_s : rec.end_s;
      g.window_s = std::max(0.0, std::min(e, makespan_s) - rec.begin_s);
      report.groups.push_back(std::move(g));
      group_spans.emplace_back();
      continue;
    }
    const auto it = root_of.find(rec.parent);
    if (it == root_of.end()) continue;
    root_of[rec.id] = it->second;  // descendants inherit the root
    group_spans[it->second].push_back(i);
  }
  for (std::size_t g = 0; g < report.groups.size(); ++g) {
    const SpanRecord& root = spans[group_root[g]];
    const double end =
        std::min(root.open() ? makespan_s : root.end_s, makespan_s);
    report.groups[g].blame = sweep(spans, group_spans[g], root.begin_s, end);
  }

  // ---- per-node rows: each node's own spans plus the global calibration
  // passes (a collective stalls every worker, so its time bills to all).
  std::map<std::uint64_t, std::vector<std::size_t>> by_node;
  std::vector<std::size_t> global_cal;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& rec = spans[i];
    if (!rec.instant && classify(rec.name) == Cause::Calibration &&
        !rec.node.is_valid()) {
      global_cal.push_back(i);
      continue;
    }
    if (rec.node.is_valid() &&
        (classify(rec.name) != Cause::None || is_marker_instant(rec)))
      by_node[rec.node.value].push_back(i);
  }
  for (auto& [node, indices] : by_node) {
    indices.insert(indices.end(), global_cal.begin(), global_cal.end());
    BlameGroup g;
    g.key = node_key(NodeId{node});
    g.window_s = makespan_s;
    g.blame = sweep(spans, indices, 0.0, makespan_s);
    report.nodes.push_back(std::move(g));
  }

  // ---- critical path: start from the categorised span that ends last,
  // chain backwards to the latest span that finished before it began.
  // Candidates are sorted once by (clipped end, index); each step's
  // predecessor is the lowest-index span of the latest end group at or
  // before the current begin, found by binary search.  Only ends above -1
  // qualify (NaN never does).
  const auto clipped_end = [&](const SpanRecord& rec) {
    return std::min(rec.open() ? makespan_s : rec.end_s, makespan_s);
  };
  struct Candidate {
    double end;
    std::size_t index;
  };
  std::vector<Candidate> by_end;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& rec = spans[i];
    if (rec.instant || classify(rec.name) == Cause::None) continue;
    const double e = clipped_end(rec);
    if (e > -1.0) by_end.push_back({e, i});
  }
  std::sort(by_end.begin(), by_end.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.end != b.end ? a.end < b.end : a.index < b.index;
            });
  // First position of the end group that by_end[pos - 1] belongs to.
  const auto group_start = [&](std::size_t pos) {
    const double e = by_end[pos - 1].end;
    return static_cast<std::size_t>(
        std::lower_bound(by_end.begin(), by_end.begin() + pos, e,
                         [](const Candidate& c, double v) { return c.end < v; }) -
        by_end.begin());
  };
  std::size_t cur = by_end.empty() ? spans.size()
                                   : by_end[group_start(by_end.size())].index;
  std::vector<CriticalPathStep> path;
  while (cur < spans.size() && path.size() < 128) {
    const SpanRecord& rec = spans[cur];
    path.push_back({rec.id, rec.name, rec.begin_s, clipped_end(rec),
                    rec.node, rec.detail});
    const double limit = rec.begin_s + 1e-12;
    std::size_t end = static_cast<std::size_t>(
        std::upper_bound(by_end.begin(), by_end.end(), limit,
                         [](double v, const Candidate& c) { return v < c.end; }) -
        by_end.begin());
    const std::size_t self = cur;
    cur = spans.size();
    while (end > 0) {
      // Lowest index in the latest end group, skipping the current span;
      // a group holding only the current span defers to the one before.
      const std::size_t first = group_start(end);
      if (by_end[first].index != self) {
        cur = by_end[first].index;
        break;
      }
      if (first + 1 < end) {
        cur = by_end[first + 1].index;
        break;
      }
      end = first;
    }
  }
  std::reverse(path.begin(), path.end());
  report.critical_path = std::move(path);
  return report;
}

std::string export_blame_text(const BlameReport& report) {
  std::ostringstream out;
  out << "== blame report ==\n";
  out << "makespan: " << fmt(report.makespan_s) << "s\n";
  const auto line = [&](const char* label, double v) {
    const double frac =
        report.makespan_s > 0.0 ? 100.0 * v / report.makespan_s : 0.0;
    out << "  " << label << ": " << fmt(v) << "s (" << fmt(frac) << "%)\n";
  };
  line("calibration       ", report.total.calibration_s);
  line("dispatch wait     ", report.total.dispatch_wait_s);
  line("compute           ", report.total.compute_s);
  line("detection+recovery", report.total.detection_recovery_s);
  line("failover          ", report.total.failover_s);
  line("idle tail         ", report.total.idle_tail_s);
  const auto rows = [&](const char* title,
                        const std::vector<BlameGroup>& groups) {
    if (groups.empty()) return;
    out << "-- " << title << " --\n";
    for (const BlameGroup& g : groups) {
      out << "  " << g.key << ": window " << fmt(g.window_s)
          << "s | compute " << fmt(g.blame.compute_s) << " | cal "
          << fmt(g.blame.calibration_s) << " | wait "
          << fmt(g.blame.dispatch_wait_s) << " | recovery "
          << fmt(g.blame.detection_recovery_s) << " | failover "
          << fmt(g.blame.failover_s) << " | tail "
          << fmt(g.blame.idle_tail_s) << '\n';
    }
  };
  rows("groups", report.groups);
  rows("nodes", report.nodes);
  if (!report.critical_path.empty()) {
    out << "-- critical path (" << report.critical_path.size()
        << " steps) --\n";
    for (const CriticalPathStep& s : report.critical_path) {
      out << "  [" << fmt(s.begin_s) << " .. " << fmt(s.end_s) << "] "
          << s.name;
      if (s.node.is_valid()) out << " node " << s.node.value;
      if (!s.detail.empty()) out << " (" << s.detail << ")";
      out << '\n';
    }
  }
  return out.str();
}

std::string export_blame_json(const BlameReport& report) {
  std::ostringstream out;
  out << "{\"makespan_s\": " << report.makespan_s << ",\n  \"blame\": ";
  append_breakdown_json(out, report.total);
  out << ",\n  \"blame_total_s\": " << report.total.total();
  const auto rows = [&](const char* key,
                        const std::vector<BlameGroup>& groups) {
    out << ",\n  \"" << key << "\": [";
    bool first = true;
    for (const BlameGroup& g : groups) {
      out << (first ? "" : ", ") << "{\"key\": \"" << json_escape(g.key)
          << "\", \"window_s\": " << g.window_s << ", \"blame\": ";
      append_breakdown_json(out, g.blame);
      out << "}";
      first = false;
    }
    out << "]";
  };
  rows("groups", report.groups);
  rows("nodes", report.nodes);
  out << ",\n  \"critical_path\": [";
  bool first = true;
  for (const CriticalPathStep& s : report.critical_path) {
    out << (first ? "" : ", ") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"begin_s\": " << s.begin_s << ", \"end_s\": " << s.end_s;
    if (s.node.is_valid()) out << ", \"node\": " << s.node.value;
    if (!s.detail.empty())
      out << ", \"detail\": \"" << json_escape(s.detail) << "\"";
    out << "}";
    first = false;
  }
  out << "]\n}\n";
  return out.str();
}

void publish_blame(const BlameReport& report, MetricsRegistry& metrics) {
  const auto set = [&](const char* name, double v) {
    metrics.set(metrics.gauge(name), v);
  };
  set("obs.blame.makespan_s", report.makespan_s);
  set("obs.blame.calibration_s", report.total.calibration_s);
  set("obs.blame.dispatch_wait_s", report.total.dispatch_wait_s);
  set("obs.blame.compute_s", report.total.compute_s);
  set("obs.blame.detection_recovery_s", report.total.detection_recovery_s);
  set("obs.blame.failover_s", report.total.failover_s);
  set("obs.blame.idle_tail_s", report.total.idle_tail_s);
  const double m = report.makespan_s;
  const auto frac = [&](double v) { return m > 0.0 ? v / m : 0.0; };
  set("obs.blame.calibration_frac", frac(report.total.calibration_s));
  set("obs.blame.dispatch_wait_frac", frac(report.total.dispatch_wait_s));
  set("obs.blame.compute_frac", frac(report.total.compute_s));
  set("obs.blame.detection_recovery_frac",
      frac(report.total.detection_recovery_s));
  set("obs.blame.failover_frac", frac(report.total.failover_s));
  set("obs.blame.idle_tail_frac", frac(report.total.idle_tail_s));
}

}  // namespace grasp::obs
