#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace e2e {

namespace {
// Spans kept for the dump per thread; totals keep counting past it.
constexpr std::size_t kSpanCap = 400000;
}  // namespace

// ------------------------------------------------------------- report ---

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

void Report::breach(const std::string& what) {
  std::printf("CORRECTNESS BREACH: %s\n", what.c_str());
  correct = false;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    double v = m.first;
    if (!std::isfinite(v)) v = v > 0 ? 1e12 : -1e12;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.second + "\"}";
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------ tracing ---

ThreadTrace::ThreadTrace(const char* thread_name, Clock::time_point epoch)
    : thread_name_(thread_name), epoch_(epoch) {}

double ThreadTrace::now_ms() const { return ms_between(epoch_, Clock::now()); }

ThreadTrace::Totals& ThreadTrace::totals_for(const char* name) {
  for (Totals& t : totals_) {
    if (t.name == name || std::strcmp(t.name, name) == 0) return t;
  }
  totals_.push_back(Totals{name});
  return totals_.back();
}

void ThreadTrace::begin(const char* name, std::uint64_t id) {
  const double start = now_ms();
  std::int64_t index = -1;
  if (spans_.size() < kSpanCap) {
    index = static_cast<std::int64_t>(spans_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().index;
    spans_.push_back(Span{name, start, start, parent, id});
  }
  stack_.push_back(Open{index, name, start, 0.0, start, id});
}

void ThreadTrace::close(const Open& o, double end_ms) {
  const double dur = end_ms - o.start_ms;
  if (o.index >= 0) spans_[static_cast<std::size_t>(o.index)].end_ms = end_ms;
  Totals& t = totals_for(o.name);
  t.total_s += dur / 1e3;
  t.self_s += (dur - o.child_ms) / 1e3;
  t.max_ms = std::max(t.max_ms, dur);
  last_ms_ = dur;
  ++recorded_;
  if (stack_.empty()) {
    root_s_ += dur / 1e3;
  } else {
    stack_.back().child_ms += dur;
  }
}

void ThreadTrace::end() {
  if (stack_.empty()) throw std::logic_error("ThreadTrace::end without begin");
  const double end_ms = now_ms();
  const Open o = stack_.back();
  stack_.pop_back();
  close(o, end_ms);
}

void ThreadTrace::add_child(const char* name, double duration_s) {
  if (stack_.empty()) throw std::logic_error("add_child outside a span");
  Open& parent = stack_.back();
  const double start = parent.cursor_ms;
  const double end_ms = start + duration_s * 1e3;
  parent.cursor_ms = end_ms;
  Open child{-1, name, start, 0.0, start, parent.id};
  if (spans_.size() < kSpanCap) {
    child.index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, start, end_ms, parent.index, parent.id});
  }
  close(child, end_ms);
}

void ThreadTrace::set_id(std::size_t span, std::uint64_t id) {
  if (span < spans_.size()) spans_[span].id = id;
}

const ThreadTrace::Totals* ThreadTrace::find(const char* name) const {
  for (const Totals& t : totals_) {
    if (std::strcmp(t.name, name) == 0) return &t;
  }
  return nullptr;
}

void ThreadTrace::write(std::ostream& os) const {
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf, "%s,%s,%.6f,%.6f,%lld,%llu\n", thread_name_,
                  s.name, s.start_ms, s.end_ms,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.id));
    os << buf;
  }
}

void write_traces(const std::string& path,
                  const std::vector<const ThreadTrace*>& traces) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::printf("warning: cannot write trace dump %s\n", path.c_str());
    return;
  }
  os << "thread,name,start_ms,end_ms,parent,id\n";
  for (const ThreadTrace* t : traces) t->write(os);
  std::printf("trace: spans written to %s\n", path.c_str());
}

// ------------------------------------------------------------ helpers ---

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return v[lo];
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

unsigned nproc() {
  const std::size_t n = allowed_cpus().size();
  return n > 0 ? static_cast<unsigned>(n)
               : std::max(1u, std::thread::hardware_concurrency());
}

void check_envelope(const Args& args, unsigned threads, unsigned pool_threads,
                    unsigned connections) {
  const unsigned cores = nproc();
  std::printf(
      "envelope: workload=%s seed=%llu threads=%u (ALBA_THREADS=%u) "
      "connections=%u nproc=%u\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      threads, pool_threads, connections, cores);
  if (threads > cores || connections > cores) {
    throw std::runtime_error(
        "refusing to start: the workload needs more threads or connections "
        "than nproc");
  }
}

}  // namespace e2e
