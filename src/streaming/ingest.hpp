// Streaming ingestion front end: from a 1 Hz per-node telemetry feed to
// triggered raw diagnosis windows.
//
// ALBADross's offline pipeline assumes a complete T x M window arrives at
// once; a production LDMS feed delivers one row per node per second, out
// of order, with drops. StreamIngestor closes that gap:
//
//  * per-node ring buffers — each node's rows land in a fixed ring indexed
//    by sequence number (1 Hz epoch). Arrivals are classified against the
//    node's watermark (highest sequence processed) and frontier (start of
//    the oldest window not yet emitted): new rows advance the watermark,
//    rows behind the watermark but at-or-after the frontier repair a gap
//    (`reordered`), duplicates are dropped keeping the first value, and a
//    row behind the frontier — it would land inside an already-emitted
//    window — is counted `late_dropped` and NEVER written to the ring
//    (emitted results are immutable history; see IngestStats);
//
//  * sliding-window triggering — windows of `window_length` rows open
//    every `stride` rows; a window emits the moment the watermark reaches
//    its last row. The gap policy decides what a window with undelivered
//    rows does: Repair emits with the missing rows as NaN (the serving
//    pipeline interpolates) up to `max_missing`, Strict drops any
//    incomplete window. Either way the decision is typed and counted.
//
// A triggered window is only its ring rows: the ingestor does no per-row
// feature work. The serving bundle's extraction (DiagnosisService) is the
// one definition of a window's features, so a reordered repair is simply
// a ring write that the window's raw matrix picks up at emit.
//
// Thread-safety: none. A StreamIngestor is a single collector thread's
// object; shard nodes across instances to parallelize (results are
// per-node deterministic regardless of sharding).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "features/preprocessing.hpp"
#include "linalg/matrix.hpp"
#include "telemetry/registry.hpp"

namespace alba {

/// What a window with undelivered rows does at trigger time. Repair: emit
/// with missing rows as NaN (interpolated downstream) unless more than
/// `max_missing` rows are absent; Strict: drop any incomplete window.
enum class GapPolicy { Repair, Strict };

std::string_view to_string(GapPolicy policy) noexcept;

struct StreamIngestConfig {
  // Rows per triggered window (the serving T). Must exceed
  // preprocess.trim_head + preprocess.trim_tail + 1.
  std::size_t window_length = 48;
  // Rows between consecutive window starts; stride < window_length slides
  // (overlapping windows), stride == window_length tumbles, stride >
  // window_length samples with gaps.
  std::size_t stride = 24;
  // The serving bundle's trim, only validated against window_length; kept
  // because the benchmark in e2ebench/ sets it.
  PreprocessConfig preprocess;
  GapPolicy gap_policy = GapPolicy::Repair;
  // Repair tolerance: max undelivered rows an emitted window may carry.
  std::size_t max_missing = 8;
};

/// Per-node loss/reorder/gap accounting. All counters are cumulative per
/// node except `missing_rows`, which is net: incremented when the
/// watermark passes an undelivered row, decremented when a reordered
/// arrival repairs it.
struct IngestStats {
  std::uint64_t accepted = 0;       // rows written (in-order + repairs)
  std::uint64_t duplicates = 0;     // re-delivered rows (first value kept)
  std::uint64_t reordered = 0;      // gap repairs behind the watermark
  std::uint64_t late_dropped = 0;   // rows behind the frontier, dropped
  std::uint64_t missing_rows = 0;   // rows passed and still undelivered
  std::uint64_t resets = 0;         // forward jumps past the ring capacity
  std::uint64_t windows_emitted = 0;
  std::uint64_t windows_dropped = 0;    // gap policy vetoed the emit
  std::uint64_t windows_recomputed = 0; // always 0; e2ebench/ reads it
  std::uint64_t windows_flushed = 0;    // in-flight, discarded by flush()
  // Wire-layer dispositions (filled by IngestServer, zero for in-process
  // feeds): rows shed by the per-node backpressure budget, and connections
  // closed on a typed frame decode error.
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t decode_errors = 0;

  IngestStats& operator+=(const IngestStats& o) noexcept;
};

std::string format_ingest_summary(const IngestStats& s);

/// CSV column names matching ingest_stats_csv_row field order; the leading
/// `label` column tags the source (e.g. "node=3" or "total") so one file
/// can hold a whole fleet. RFC-4180 escaping via csv_escape, so labels with
/// commas or quotes parse back intact.
std::string ingest_stats_csv_header();
std::string ingest_stats_csv_row(std::string_view label,
                                 const IngestStats& s);

/// Writes header + one row per (label, stats) entry — the ingest twin of
/// write_serving_stats_csv.
void write_ingest_stats_csv(
    std::ostream& os,
    std::span<const std::pair<std::string, IngestStats>> rows);

/// One triggered window, ready for serving: the raw window_length x M
/// matrix (undelivered rows are NaN; serving's preprocessing interpolates
/// them).
struct TriggeredWindow {
  int node = 0;
  std::uint64_t start_seq = 0;
  Matrix raw;
  std::size_t missing_rows = 0;
};

class StreamIngestor {
 public:
  explicit StreamIngestor(MetricRegistry registry,
                          StreamIngestConfig config = {});

  /// Ingests one row: node's metric values (size M, NaN cells allowed) at
  /// 1 Hz sequence number `seq`. Returns the windows this row triggered
  /// (usually none; possibly several after a gap), in start order.
  std::vector<TriggeredWindow> push(int node, std::uint64_t seq,
                                    std::span<const double> values);

  /// Discards every in-flight window on every node (counted
  /// windows_flushed) and advances each node's frontier past them, so a
  /// replay can end without leaking partial state. Streaming may continue
  /// afterwards; rows for the discarded spans count late_dropped.
  void flush();

  /// Per-node accounting (zero stats for a node never seen).
  IngestStats stats(int node) const;
  /// Sum over all nodes.
  IngestStats total_stats() const;
  /// Windows currently open on a node.
  std::size_t windows_in_flight(int node) const;

  const MetricRegistry& registry() const noexcept { return registry_; }
  const StreamIngestConfig& config() const noexcept { return config_; }

 private:
  struct WindowState {
    std::uint64_t start = 0;
    std::size_t missing = 0;  // undelivered rows in [start, start + L)
  };

  struct NodeState {
    bool started = false;
    std::uint64_t base = 0;       // ring origin (re-anchored on reset)
    std::uint64_t next_mark = 0;  // watermark + 1: next row to process
    std::uint64_t frontier = 0;   // oldest unemitted window's start
    std::uint64_t next_open = 0;  // next window's start
    std::vector<double> ring;     // capacity x M, row-major
    std::vector<std::uint8_t> present;  // per ring slot
    std::deque<WindowState> windows;    // in-flight, start order
    IngestStats stats;
  };

  std::size_t slot(const NodeState& ns, std::uint64_t seq) const noexcept {
    return static_cast<std::size_t>((seq - ns.base) % capacity_);
  }

  void reset_node(NodeState& ns, std::uint64_t seq);
  void mark_row(NodeState& ns, int node, std::uint64_t s,
                std::span<const double> values, bool delivered,
                std::vector<TriggeredWindow>& out);
  void repair_row(NodeState& ns, std::uint64_t seq,
                  std::span<const double> values);
  void emit_front(NodeState& ns, int node, std::vector<TriggeredWindow>& out);

  MetricRegistry registry_;
  StreamIngestConfig config_;
  std::size_t capacity_ = 0;
  std::map<int, NodeState> nodes_;
};

}  // namespace alba
