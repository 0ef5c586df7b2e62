// Shared pieces of the end-to-end benchmark: arguments, the result report
// printed as the last stdout line, the in-memory span tracer, and small
// statistics helpers. Every timer here wraps calls into the library's
// public API from outside; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string fixture_dir;  // where run.py keeps the trained bundles
  std::string trace_out;    // span dump written at exit (traced runs)
};

/// What one run prints: the correctness verdict, operation counts, and the
/// metrics of the requested kind (end-to-end or per-layer), in order.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Records a correctness breach: printed, and the run reports
  /// correct=false.
  void breach(const std::string& what);
  std::string json() const;
};

// ------------------------------------------------------------- tracing ---

/// Span recorder for one thread (not thread-safe; each thread owns one).
/// Spans nest: begin() opens a span under the innermost open one, end()
/// closes it. Totals and self times (duration minus the time covered by
/// direct children) are accumulated as spans close, so they stay exact
/// even after the stored span list hits its cap.
class ThreadTrace {
 public:
  struct Totals {
    const char* name = nullptr;
    double total_s = 0.0;
    double self_s = 0.0;
    double max_ms = 0.0;
  };

  ThreadTrace(const char* thread_name, Clock::time_point epoch);

  void begin(const char* name, std::uint64_t id = 0);
  void end();
  /// A child of the innermost open span whose duration was measured by the
  /// library itself (e.g. RoundStats phases): laid end to end from the
  /// parent's start, since only the duration is known.
  void add_child(const char* name, double duration_s);
  /// Sets the window id of a stored span (ids known only after the call).
  void set_id(std::size_t span, std::uint64_t id);
  /// Index the next begin() will store at.
  std::size_t next_span() const noexcept { return spans_.size(); }

  const Totals* find(const char* name) const;
  /// Summed duration of root spans (no parent).
  double root_s() const noexcept { return root_s_; }
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Duration of the span closed most recently.
  double last_ms() const noexcept { return last_ms_; }

  /// CSV rows: thread,name,start_ms,end_ms,parent,id.
  void write(std::ostream& os) const;

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    std::int64_t parent;
    std::uint64_t id;
  };
  struct Open {
    std::int64_t index;  // stored span, or -1 past the cap
    const char* name;
    double start_ms;
    double child_ms;
    double cursor_ms;  // where the next add_child lands
    std::uint64_t id;
  };

  double now_ms() const;
  void close(const Open& o, double end_ms);
  Totals& totals_for(const char* name);

  const char* thread_name_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::vector<Totals> totals_;
  double root_s_ = 0.0;
  double last_ms_ = 0.0;
  std::uint64_t recorded_ = 0;
};

/// RAII span on an optional trace: a null trace (untraced run) costs one
/// branch and no clock read.
class Scope {
 public:
  Scope(ThreadTrace* t, const char* name, std::uint64_t id = 0) : t_(t) {
    if (t_ != nullptr) t_->begin(name, id);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadTrace* t_;
};

/// Window id shared by every span of one window: (node, start_seq).
inline std::uint64_t window_id(int node, std::uint64_t start_seq) {
  return (static_cast<std::uint64_t>(node) << 40) | start_seq;
}

/// Writes every trace's spans to `path` (no-op for an empty path).
void write_traces(const std::string& path,
                  const std::vector<const ThreadTrace*>& traces);

// ------------------------------------------------------------- helpers ---

/// Linear-interpolation percentile, q in [0, 1]; +inf entries sort last.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double peak_rss_mb();
/// The CPUs this process may run on (its affinity mask), in order; nproc()
/// is their count, as the nproc command reports it.
std::vector<int> allowed_cpus();
unsigned nproc();

/// Refuses (throws) when the workload would run more threads or open more
/// connections than the machine has cores; prints the envelope otherwise.
void check_envelope(const Args& args, unsigned threads, unsigned pool_threads,
                    unsigned connections);

// ----------------------------------------------------------- workloads ---

bool is_online(const std::string& workload);
/// Trains the online workload's serving bundle and writes it to `path`.
void make_fixture(const std::string& workload, const std::string& path);
std::string fixture_path(const std::string& dir, const std::string& workload);

Report run_online(const Args& args);
Report run_offline(const Args& args);

}  // namespace e2e
