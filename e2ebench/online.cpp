// The online workloads: simulated nodes stream telemetry rows over real
// loopback TCP (one WireClient and connection per node) into an
// IngestServer whose triggered windows are diagnosed inline by a
// ServiceHost. The path timed is the one an operator pays for: a row
// leaving WireClient to its window's verdict leaving take_served().
//
// A pass has two phases over one continuous feed per node (an untraced run
// makes kPasses passes over the same feed):
//   1. closed loop — each client keeps its max_inflight_rows buffer full;
//      gives the saturation throughput;
//   2. open loop — row k of every node is due at t0 + k x period (nodes in
//      lock step, as a 1 Hz sampler would be, only faster); gives verdict
//      latency, counted from the due time of each window's last row.
// Every verdict is checked bit for bit against DiagnosisService::diagnose
// on the window an in-process StreamIngestor::push replay of the exact
// offered sequence produces, and every offered row is accounted for.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "alba.hpp"
#include "bench.hpp"
#include "common/rng.hpp"

using namespace alba;

namespace e2e {
namespace {

constexpr std::size_t kNodes = 4;
// Set-ups timed before each pass; setup_s is the median over all of them.
// A set-up is a few ms of CPU work, and a shared machine can run the same
// work several times slower for stretches of tens of ms, so many set-ups
// at several moments of the run keep such stretches out of the median.
constexpr std::size_t kSetupRepeats = 50;
// Shares of --seconds, per pass: the closed-loop phase is sized (in rows)
// to last about kClosedShare x --seconds at the rate the spec names; the
// open-loop phase lasts kOpenShare x --seconds of schedule.
constexpr double kClosedShare = 0.3;
constexpr double kOpenShare = 0.7;
// An untraced run makes kPasses passes over the same feed, each on a fresh
// set-up. A window's latency is its median over the passes: a slow second
// of a shared machine in one pass stays out of the tail, while a stall the
// system causes at the same windows in every pass reaches it.
constexpr std::size_t kPasses = 3;
// Rows are perturbed only away from phase edges, so each phase's last
// window triggers on its own rows.
constexpr std::uint64_t kEdgeRows = 8;
constexpr double kNeverSentRate = 0.005;
constexpr double kDelayedRate = 0.01;
// The open-loop generator is behind its own schedule (not the system's)
// when it reaches rows this late at p99. Such a pass is invalid, not
// failed: its latencies would read the generator's lag as the system's.
// An untraced run makes up to kMaxPasses passes to get kPasses valid ones;
// short of that, it uses the least-late passes and says the run is invalid.
constexpr double kLateInvalidMs = 5.0;
constexpr std::size_t kMaxPasses = kPasses + 2;
// Threads replaying the reference (the main thread included).
constexpr unsigned kReferenceThreads = 3;
// No phase may outlast this; a stuck pipeline becomes failed windows.
constexpr double kPhaseTimeoutS = 60.0;
// The closed-loop rate is the median over this many equal slices of its
// verdicts, so a few slow seconds of a shared machine move a few slices
// rather than the whole rate.
constexpr std::size_t kRateSlices = 15;

struct OnlineSpec {
  const char* name;
  bool eclipse;  // Eclipse MVTS bundle, else Volta TSFRESH
  std::size_t window_length;
  std::size_t stride;
  // Rows a client keeps in flight (unacked): a few windows' worth. It
  // bounds what one poll_once drains per node, so verdicts leave in small
  // batches, and it is the server's per-poll budget, so nothing sheds.
  std::size_t inflight_rows;
  // Sizes the closed-loop phase: rows (all nodes) per second of it.
  double closed_rows_per_s;
  // The open-loop phase's fixed offered rate, all nodes together: a third
  // to a half of the parent's closed-loop rate (recorded in BENCHMARK.json),
  // low enough that a slow minute of a shared machine does not saturate it.
  double offered_rows_per_s;
};

constexpr OnlineSpec kSpecs[] = {
    {"stream-ingest", true, 60, 60, 256, 36000.0, 12000.0},
    {"stream-diagnose", false, 60, 10, 32, 2400.0, 1200.0},
};

const OnlineSpec& find_spec(const std::string& name) {
  for (const OnlineSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::runtime_error("unknown online workload: " + name);
}

/// The paper's per-system configuration with runs one window long, so a
/// training sample has exactly the shape of a served window.
DatasetConfig dataset_config(const OnlineSpec& spec) {
  DatasetConfig cfg = spec.eclipse ? eclipse_config() : volta_config();
  cfg.sim.duration_steps = static_cast<int>(spec.window_length);
  return cfg;
}

StreamIngestConfig stream_config(const OnlineSpec& spec,
                                 const DatasetConfig& cfg) {
  StreamIngestConfig sc;
  sc.window_length = spec.window_length;
  sc.stride = spec.stride;
  sc.preprocess = cfg.preprocess;
  return sc;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---------------------------------------------------------------- feed ---

struct Offer {
  std::uint64_t seq = 0;
  std::uint64_t slot = 0;  // schedule slot the row is offered in
};

struct NodeFeed {
  std::size_t metrics = 0;
  std::vector<double> values;  // row-major, indexed by seq
  std::vector<int> truth;      // label of the run each row belongs to
  std::vector<Offer> offers;   // offer order
  std::size_t closed_offers = 0;  // offers[0, closed_offers): closed loop
  std::uint64_t never_sent = 0;

  std::span<const double> row(std::uint64_t seq) const {
    return {values.data() + seq * metrics, metrics};
  }
};

struct Feed {
  std::vector<NodeFeed> nodes;
  std::uint64_t closed_rows = 0;  // per node: seqs [0, closed_rows)
  std::uint64_t total_rows = 0;   // per node
};

std::uint64_t round_up(double rows, std::size_t multiple) {
  const auto m = static_cast<std::uint64_t>(multiple);
  const auto r = static_cast<std::uint64_t>(std::ceil(rows));
  return std::max<std::uint64_t>(m, (r + m - 1) / m * m);
}

/// Offers seqs [begin, end) in slot order, except that ~0.5% of rows are
/// never sent and ~1% are offered 2-5 slots late (after a later row).
void plan_offers(NodeFeed& nf, std::uint64_t begin, std::uint64_t end,
                 Rng& rng) {
  std::vector<std::vector<std::uint64_t>> late(end - begin);
  std::vector<char> moved(end - begin, 0);
  for (std::uint64_t s = begin + 1; s + kEdgeRows < end; ++s) {
    const double u = rng.uniform();
    if (u < kNeverSentRate) {
      moved[s - begin] = 1;
      ++nf.never_sent;
    } else if (u < kNeverSentRate + kDelayedRate) {
      const std::uint64_t d = 2 + rng.uniform_index(4);
      moved[s - begin] = 1;
      late[s + d - begin].push_back(s);
    }
  }
  for (std::uint64_t t = begin; t < end; ++t) {
    if (!moved[t - begin]) nf.offers.push_back({t, t});
    for (const std::uint64_t s : late[t - begin]) nf.offers.push_back({s, t});
  }
}

/// Per node: runs of RunGenerator telemetry (shuffled, dealt round-robin)
/// laid end to end, then the offer plan of both phases.
Feed build_feed(const OnlineSpec& spec, const DatasetConfig& cfg,
                const Args& args, ThreadTrace* trace) {
  Feed feed;
  const std::size_t L = spec.window_length;
  feed.closed_rows = round_up(
      kClosedShare * args.seconds * spec.closed_rows_per_s / kNodes, L);
  const std::uint64_t open_rows = round_up(
      kOpenShare * args.seconds * spec.offered_rows_per_s / kNodes, L);
  feed.total_rows = feed.closed_rows + open_rows;

  Scope span(trace, "telemetry.generate");
  const RunGenerator generator(cfg.system, cfg.registry, cfg.sim);
  const std::size_t m = generator.registry().size();
  feed.nodes.resize(kNodes);
  for (NodeFeed& nf : feed.nodes) {
    nf.metrics = m;
    nf.values.reserve(feed.total_rows * m);
    nf.truth.reserve(feed.total_rows);
  }
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  CollectionPlan plan = cfg.plan;
  std::size_t next_node = 0;
  const auto full = [&] {
    for (const NodeFeed& nf : feed.nodes) {
      if (nf.truth.size() < feed.total_rows) return false;
    }
    return true;
  };
  for (std::uint64_t batch = 0; !full(); ++batch) {
    plan.seed = args.seed * 1000003ULL + batch;
    std::vector<Sample> samples = generator.generate(make_collection_specs(
        cfg.system, generator.apps().size(), cfg.inputs_per_app, plan));
    for (std::size_t i = samples.size(); i > 1; --i) {
      std::swap(samples[i - 1], samples[rng.uniform_index(i)]);
    }
    for (const Sample& s : samples) {
      NodeFeed* nf = nullptr;
      for (std::size_t k = 0; k < kNodes && nf == nullptr; ++k) {
        NodeFeed& cand = feed.nodes[(next_node + k) % kNodes];
        if (cand.truth.size() < feed.total_rows) {
          nf = &cand;
          next_node = (next_node + k + 1) % kNodes;
        }
      }
      if (nf == nullptr) break;
      const int label = anomaly_label(s.label);
      for (std::size_t r = 0; r < s.series.rows(); ++r) {
        const auto row = s.series.row(r);
        nf->values.insert(nf->values.end(), row.begin(), row.end());
        nf->truth.push_back(label);
      }
    }
  }
  for (std::size_t n = 0; n < kNodes; ++n) {
    NodeFeed& nf = feed.nodes[n];
    nf.values.resize(feed.total_rows * m);
    nf.truth.resize(feed.total_rows);
    Rng prng = rng.split(n + 1);
    plan_offers(nf, 0, feed.closed_rows, prng);
    nf.closed_offers = nf.offers.size();
    plan_offers(nf, feed.closed_rows, feed.total_rows, prng);
  }
  return feed;
}

// ----------------------------------------------------------- reference ---

struct Expected {
  std::uint64_t start = 0;
  bool open_phase = false;
  std::uint64_t raw_hash = 0;
  int truth = 0;
  Diagnosis diagnosis;
};

struct NodeReference {
  std::vector<Expected> windows;  // emit order
  IngestStats stats;
};

/// Replays each node's exact offered sequence through an in-process
/// StreamIngestor and diagnoses every window with DiagnosisService.
std::vector<NodeReference> compute_reference(const Feed& feed,
                                             const std::string& bundle_bytes,
                                             const DatasetConfig& cfg,
                                             const StreamIngestConfig& sc) {
  std::istringstream in(bundle_bytes, std::ios::in | std::ios::binary);
  ServingConfig serving;
  serving.cache_capacity = 0;
  DiagnosisService service(load_model_bundle(in), serving);
  const MetricRegistry registry(cfg.system, cfg.registry);
  std::vector<NodeReference> refs(kNodes);
  const auto replay = [&](unsigned worker) {
    for (std::size_t n = worker; n < kNodes; n += kReferenceThreads) {
      const NodeFeed& nf = feed.nodes[n];
      StreamIngestor ingestor(registry, sc);
      const int node = static_cast<int>(n);
      for (std::size_t i = 0; i < nf.offers.size(); ++i) {
        const Offer& o = nf.offers[i];
        for (TriggeredWindow& w : ingestor.push(node, o.seq, nf.row(o.seq))) {
          Expected e;
          e.start = w.start_seq;
          e.open_phase = i >= nf.closed_offers;
          e.raw_hash = hash_window(w.raw);
          e.truth = nf.truth[w.start_seq + sc.window_length / 2];
          e.diagnosis = service.diagnose(w.raw);
          refs[n].windows.push_back(std::move(e));
        }
      }
      refs[n].stats = ingestor.stats(node);
    }
  };
  std::vector<std::thread> helpers;
  for (unsigned w = 1; w < kReferenceThreads; ++w) {
    helpers.emplace_back(replay, w);
  }
  replay(0);
  for (std::thread& t : helpers) t.join();
  return refs;
}

/// The traced-run replay: StreamIngestor::push alone over every node's
/// offered sequence, on one thread, for the ingestor's per-row cost.
double timed_push_replay(const Feed& feed, const DatasetConfig& cfg,
                         const StreamIngestConfig& sc, ThreadTrace& trace) {
  StreamIngestor ingestor(MetricRegistry(cfg.system, cfg.registry), sc);
  std::uint64_t rows = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    const NodeFeed& nf = feed.nodes[n];
    for (const Offer& o : nf.offers) {
      Scope span(&trace, "streaming.push", n);
      ingestor.push(static_cast<int>(n), o.seq, nf.row(o.seq));
    }
    rows += nf.offers.size();
  }
  const ThreadTrace::Totals* t = trace.find("streaming.push");
  return t == nullptr ? 0.0 : t->total_s * 1e6 / static_cast<double>(rows);
}

// ------------------------------------------------------ system under test ---

/// Times each diagnose call the server makes (on the server thread) as a
/// serving.diagnose span under the enclosing streaming.poll span.
class TimedDiagnoser : public Diagnoser {
 public:
  TimedDiagnoser(Diagnoser& inner, ThreadTrace& trace)
      : inner_(inner), trace_(trace) {}

  DiagnosisResult diagnose(const DiagnoseRequest& request) override {
    pending_.push_back(trace_.next_span());
    trace_.begin("serving.diagnose");
    DiagnosisResult r = inner_.diagnose(request);
    trace_.end();
    durations_ms_.push_back(trace_.last_ms());
    return r;
  }

  /// Span indices of the calls since the last take, in call order (which
  /// is take_served() order).
  std::vector<std::size_t> take_pending() {
    std::vector<std::size_t> out;
    out.swap(pending_);
    return out;
  }
  const std::vector<double>& durations_ms() const { return durations_ms_; }

 private:
  Diagnoser& inner_;
  ThreadTrace& trace_;
  std::vector<std::size_t> pending_;
  std::vector<double> durations_ms_;
};

/// One set-up of the system under test. Members are declared in
/// dependency order so destruction tears down clients, then the server,
/// then serving.
struct Stack {
  std::shared_ptr<DiagnosisService> service;
  std::unique_ptr<ServiceHost> host;
  std::unique_ptr<TimedDiagnoser> timed;
  std::unique_ptr<StreamIngestor> ingestor;
  std::unique_ptr<IngestServer> server;
  std::vector<std::unique_ptr<WireClient>> clients;
};

WireClientConfig client_config(const OnlineSpec& spec, std::size_t node,
                               std::size_t metrics, std::uint64_t seed) {
  WireClientConfig cc;
  cc.node = static_cast<std::uint32_t>(node);
  cc.metric_count = static_cast<std::uint32_t>(metrics);
  cc.reconnect.seed = seed + 71 * node;
  cc.max_inflight_rows = spec.inflight_rows;
  return cc;
}

/// Restricts the calling thread to `cpus`. Threads it creates afterwards
/// inherit the mask.
void pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double now_ms(Clock::time_point epoch) {
  return ms_between(epoch, Clock::now());
}

/// Bundle load from bytes through every client's completed Hello exchange.
std::unique_ptr<Stack> set_up(const OnlineSpec& spec,
                              const std::string& bundle_bytes,
                              const DatasetConfig& cfg,
                              const StreamIngestConfig& sc,
                              std::uint64_t seed, ThreadTrace* server_trace,
                              Clock::time_point epoch, double& seconds) {
  const Clock::time_point t0 = Clock::now();
  auto st = std::make_unique<Stack>();
  std::istringstream in(bundle_bytes, std::ios::in | std::ios::binary);
  st->service = std::make_shared<DiagnosisService>(load_model_bundle(in));
  HostConfig hc;
  hc.workers = 1;  // the server blocks on each window, so one is busy
  st->host = std::make_unique<ServiceHost>(st->service, hc);
  Diagnoser* diagnoser = st->host.get();
  if (server_trace != nullptr) {
    st->timed = std::make_unique<TimedDiagnoser>(*st->host, *server_trace);
    diagnoser = st->timed.get();
  }
  auto listener = TcpListener::bind_loopback(0);
  const std::uint16_t port = listener->port();
  st->ingestor = std::make_unique<StreamIngestor>(
      MetricRegistry(cfg.system, cfg.registry), sc);
  IngestServerConfig server_cfg;
  server_cfg.node_rows_per_poll = spec.inflight_rows;
  st->server = std::make_unique<IngestServer>(std::move(listener),
                                              *st->ingestor, server_cfg,
                                              diagnoser);
  const std::size_t m = st->ingestor->registry().size();
  for (std::size_t n = 0; n < kNodes; ++n) {
    st->clients.push_back(std::make_unique<WireClient>(
        [port] { return tcp_connect("127.0.0.1", port); },
        client_config(spec, n, m, seed)));
  }
  for (;;) {
    const double now = now_ms(epoch);
    bool all = true;
    for (auto& c : st->clients) {
      c->step(now);
      all = all && c->connected();
    }
    if (all) break;
    st->server->poll_once(now);
    if (seconds_between(t0, Clock::now()) > 10.0) {
      throw std::runtime_error("clients did not complete the Hello exchange");
    }
  }
  seconds = seconds_between(t0, Clock::now());
  return st;
}

struct Verdict {
  int node = 0;
  std::uint64_t start = 0;
  double t_ms = 0.0;  // when it left take_served()
  DiagnosisResult result;
  std::uint64_t raw_hash = 0;
};

struct RunResult {
  double closed_rows_per_s = 0.0;  // median of `rates`
  std::vector<double> rates;       // closed-loop rows/s per slice
  // Latency (ms) of every open-loop window; +inf = no Ok verdict.
  std::vector<double> latency;
  std::vector<double> late_ms;     // generator lateness per open-loop row
  std::vector<Verdict> verdicts;
  std::vector<WireClientStats> client_stats;
  std::vector<IngestStats> node_stats;
  std::vector<std::uint64_t> watermarks;
  std::vector<std::size_t> unacked;
  std::size_t backlog_max = 0;
  HostStats host;
  ServingStats serving;
  IngestStats ingest_total;
  double wall_s = 0.0;  // both phases, on the server thread
  double open_poll_max_ms = 0.0;  // longest poll_once in the open loop
  std::vector<double> diagnose_ms;
  std::uint64_t offered = 0;
};

/// Times kSetupRepeats set-ups (each torn down before the next) on the
/// CPUs the system under test runs on in run_phases.
void time_setup(const OnlineSpec& spec, const std::string& bundle_bytes,
                const DatasetConfig& cfg, const StreamIngestConfig& sc,
                std::uint64_t seed, Clock::time_point epoch,
                std::vector<double>& seconds) {
  const std::vector<int> cpus = allowed_cpus();
  pin_this_thread({cpus.begin() + 1, cpus.end()});
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    double s = 0.0;
    set_up(spec, bundle_bytes, cfg, sc, seed, nullptr, epoch, s);
    seconds.push_back(s);
  }
  pin_this_thread(cpus);
}

/// Sets the system up, then runs both phases: the generator thread drives
/// the clients, this thread drives the server.
RunResult run_phases(const OnlineSpec& spec, const DatasetConfig& cfg,
                     const StreamIngestConfig& sc, const Feed& feed,
                     const std::vector<NodeReference>& refs,
                     const std::string& bundle_bytes, const Args& args,
                     ThreadTrace* server_trace, ThreadTrace* gen_trace,
                     Clock::time_point epoch) {
  RunResult res;
  // The load generator gets the first CPU to itself, as a separate
  // component would have its own machine; the system under test (this
  // server thread, the host worker and the pool, which inherit the mask)
  // runs on the rest.
  const std::vector<int> cpus = allowed_cpus();
  const std::vector<int> generator_cpu(cpus.begin(), cpus.begin() + 1);
  pin_this_thread({cpus.begin() + 1, cpus.end()});
  double setup_s = 0.0;  // not reported: time_setup times set-ups apart
  const std::unique_ptr<Stack> st = set_up(spec, bundle_bytes, cfg, sc,
                                           args.seed, server_trace, epoch,
                                           setup_s);

  std::size_t expected_closed = 0;
  std::size_t expected_total = 0;
  for (const NodeReference& r : refs) {
    for (const Expected& e : r.windows) {
      ++expected_total;
      if (!e.open_phase) ++expected_closed;
    }
  }

  const double period_ms = 1e3 * kNodes / spec.offered_rows_per_s;
  std::atomic<std::size_t> served_closed{0};
  std::atomic<std::size_t> served_total{0};
  std::atomic<bool> gen_done{false};
  std::atomic<bool> open_phase{false};
  std::atomic<bool> server_failed{false};
  std::exception_ptr gen_error;
  Clock::time_point first_offer{};
  Clock::time_point open_t0{};
  std::size_t backlog_max = 0;
  std::vector<double> late_ms;
  std::uint64_t offered = 0;

  // Open-phase windows per node, for telling the phases apart on arrival.
  std::map<std::uint64_t, bool> open_window;
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (const Expected& e : refs[n].windows) {
      open_window[window_id(static_cast<int>(n), e.start)] = e.open_phase;
    }
  }

  // The load generator: the closed loop, then the open loop.
  const auto drive = [&] {
    pin_this_thread(generator_cpu);
    std::vector<std::size_t> cursor(kNodes, 0);
    // One generator round: offer every node's due rows, then step all
    // clients back to back, so one slot's rows of all nodes reach the wire
    // together. True once every row up to `end` is offered and acked.
    const auto round = [&](const auto& may_offer, const auto& end) {
      Scope span(gen_trace, "wire.client");
      const double now = now_ms(epoch);
      for (std::size_t n = 0; n < kNodes; ++n) {
        const NodeFeed& nf = feed.nodes[n];
        while (cursor[n] < end(nf) && may_offer(n, nf.offers[cursor[n]])) {
          const Offer& o = nf.offers[cursor[n]];
          if (!st->clients[n]->offer(o.seq, static_cast<double>(o.seq),
                                     nf.row(o.seq))) {
            break;
          }
          ++cursor[n];
          ++offered;
        }
      }
      bool done = true;
      for (std::size_t n = 0; n < kNodes; ++n) {
        WireClient& c = *st->clients[n];
        c.step(now);
        backlog_max = std::max(backlog_max, c.unacked());
        done = done && cursor[n] == end(feed.nodes[n]) && c.idle();
      }
      return done;
    };
    // ---- phase 1: closed loop ------------------------------------------
    const Clock::time_point closed_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kPhaseTimeoutS));
    first_offer = Clock::now();
    for (;;) {
      const std::uint64_t before = offered;
      const bool done =
          round([](std::size_t, const Offer&) { return true; },
                [](const NodeFeed& nf) { return nf.closed_offers; });
      if (done &&
          served_closed.load(std::memory_order_acquire) >= expected_closed) {
        break;
      }
      if (Clock::now() > closed_deadline || server_failed.load()) break;
      // Every buffer is full: wait for acks instead of spinning a core the
      // system under test shares a machine with.
      if (offered == before) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    // ---- phase 2: open loop on a wall-clock schedule --------------------
    open_t0 = Clock::now() + std::chrono::milliseconds(20);
    open_phase.store(true, std::memory_order_release);
    const Clock::time_point open_deadline =
        open_t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          kPhaseTimeoutS + kOpenShare * args.seconds));
    std::vector<std::size_t> seen(kNodes, 0);
    for (std::size_t n = 0; n < kNodes; ++n) {
      cursor[n] = seen[n] = feed.nodes[n].closed_offers;
    }
    for (;;) {
      const double el_ms = ms_between(open_t0, Clock::now());
      const double due_slots = std::floor(el_ms / period_ms);
      // A row is due once its slot has started; the first time the
      // generator reaches it, its lateness is recorded (a refused offer is
      // the system pushing back and shows in the verdict latency instead).
      const auto due = [&](std::size_t n, const Offer& o) {
        const double rel = static_cast<double>(o.slot - feed.closed_rows);
        if (el_ms < 0.0 || rel > due_slots) return false;
        if (cursor[n] >= seen[n]) {
          late_ms.push_back(el_ms - rel * period_ms);
          seen[n] = cursor[n] + 1;
        }
        return true;
      };
      const bool done =
          round(due, [](const NodeFeed& nf) { return nf.offers.size(); });
      if (done &&
          served_total.load(std::memory_order_acquire) >= expected_total) {
        break;
      }
      if (Clock::now() > open_deadline || server_failed.load()) break;
      Clock::time_point next =
          open_t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            (std::max(due_slots, -1.0) + 1.0) * period_ms));
      next = std::min(next, Clock::now() + std::chrono::microseconds(500));
      std::this_thread::sleep_until(next);
    }
  };
  std::thread generator([&] {
    try {
      drive();
    } catch (...) {
      gen_error = std::current_exception();
    }
    gen_done.store(true, std::memory_order_release);
  });

  const Clock::time_point wall0 = Clock::now();
  IngestServer& server = *st->server;
  std::exception_ptr server_error;
  try {
    while (!gen_done.load(std::memory_order_acquire)) {
      std::size_t disposed = 0;
      {
        Scope span(server_trace, "streaming.poll");
        disposed = server.poll_once(now_ms(epoch));
      }
      if (server_trace != nullptr &&
          open_phase.load(std::memory_order_acquire)) {
        res.open_poll_max_ms =
            std::max(res.open_poll_max_ms, server_trace->last_ms());
      }
      std::vector<ServedWindow> served = server.take_served();
      const double t = now_ms(epoch);
      if (served.empty()) {
        if (disposed == 0) {
          Scope span(server_trace, "streaming.wait");
          server.wait(1.0);
        }
        continue;
      }
      Scope collect(server_trace, "bench.collect");
      std::vector<std::size_t> spans;
      if (st->timed) spans = st->timed->take_pending();
      std::size_t closed = 0;
      for (std::size_t i = 0; i < served.size(); ++i) {
        ServedWindow& w = served[i];
        const std::uint64_t id = window_id(w.window.node, w.window.start_seq);
        if (i < spans.size()) server_trace->set_id(spans[i], id);
        const auto it = open_window.find(id);
        if (it != open_window.end() && !it->second) ++closed;
        Verdict v;
        v.node = w.window.node;
        v.start = w.window.start_seq;
        v.t_ms = t;
        v.result = std::move(w.result);
        v.raw_hash = hash_window(w.window.raw);
        res.verdicts.push_back(std::move(v));
      }
      served_closed.fetch_add(closed, std::memory_order_release);
      served_total.fetch_add(served.size(), std::memory_order_release);
    }
  } catch (...) {
    server_error = std::current_exception();
    server_failed.store(true);
  }
  generator.join();
  if (server_error) std::rethrow_exception(server_error);
  if (gen_error) std::rethrow_exception(gen_error);
  res.wall_s = seconds_between(wall0, Clock::now());
  pin_this_thread(cpus);

  // ---- collect ------------------------------------------------------------
  std::vector<double> closed_ms;
  std::map<std::uint64_t, double> verdict_ms;
  for (const Verdict& v : res.verdicts) {
    const std::uint64_t id = window_id(v.node, v.start);
    const auto it = open_window.find(id);
    if (it != open_window.end() && !it->second) closed_ms.push_back(v.t_ms);
    if (v.result.ok()) verdict_ms.emplace(id, v.t_ms);
  }
  // Each window stands for `stride` new rows of its node.
  std::sort(closed_ms.begin(), closed_ms.end());
  double slice_start = ms_between(epoch, first_offer);
  for (std::size_t k = 1; k <= kRateSlices && !closed_ms.empty(); ++k) {
    const std::size_t lo = (k - 1) * closed_ms.size() / kRateSlices;
    const std::size_t hi = k * closed_ms.size() / kRateSlices;
    const double end = closed_ms[hi - 1];
    res.rates.push_back(static_cast<double>((hi - lo) * spec.stride) /
                        ((end - slice_start) / 1e3));
    slice_start = end;
  }
  res.closed_rows_per_s = median(res.rates);
  std::printf("closed-loop slice rates:");
  for (double r : res.rates) std::printf(" %.0f", r);
  std::printf("\n");

  const double open0_ms = ms_between(epoch, open_t0);
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (const Expected& e : refs[n].windows) {
      if (!e.open_phase) continue;
      const std::uint64_t last = e.start + spec.window_length - 1;
      const double due = open0_ms + static_cast<double>(last -
                                                        feed.closed_rows) *
                                        period_ms;
      const auto it = verdict_ms.find(window_id(static_cast<int>(n), e.start));
      res.latency.push_back(it == verdict_ms.end()
                                ? std::numeric_limits<double>::infinity()
                                : it->second - due);
    }
  }
  res.late_ms = std::move(late_ms);
  res.backlog_max = backlog_max;
  res.offered = offered;
  for (std::size_t n = 0; n < kNodes; ++n) {
    res.client_stats.push_back(st->clients[n]->stats());
    res.unacked.push_back(st->clients[n]->unacked());
    res.node_stats.push_back(server.stats(static_cast<int>(n)));
    res.watermarks.push_back(server.watermark(static_cast<int>(n)));
  }
  res.ingest_total = server.total_stats();
  res.host = st->host->stats();
  res.serving = st->service->stats();
  if (st->timed) res.diagnose_ms = st->timed->durations_ms();
  return res;
}

// --------------------------------------------------------- correctness ---

/// Per-node conservation (every offered row ends exactly once as ingested
/// or as a typed shed, matching the reference) and the verdict gate; adds
/// to attempted (reference windows) and failed (those without an Ok
/// verdict).
void check_run(const Feed& feed, const std::vector<NodeReference>& refs,
               const RunResult& res, Report& report, bool print) {
  if (print) {
    std::printf(
        "node  offered   acked     ingested  out_of_seq late_drop "
        "never_sent shed  dup   non_conforming\n");
  }
  std::vector<std::string> problems;
  for (std::size_t n = 0; n < kNodes; ++n) {
    const NodeFeed& nf = feed.nodes[n];
    const WireClientStats& c = res.client_stats[n];
    const IngestStats& s = res.node_stats[n];
    const IngestStats& r = refs[n].stats;
    const std::uint64_t offered = nf.offers.size();
    const std::uint64_t disposed =
        s.accepted + s.duplicates + s.late_dropped + s.rejected_backpressure;
    const std::uint64_t non_conforming =
        offered > disposed ? offered - disposed : disposed - offered;
    if (print) {
      std::printf("%-5zu %-9llu %-9llu %-9llu %-10llu %-9llu %-10llu %-5llu "
                  "%-5llu %llu\n",
                  n, static_cast<unsigned long long>(c.rows_offered),
                  static_cast<unsigned long long>(c.rows_acked),
                  static_cast<unsigned long long>(s.accepted),
                  static_cast<unsigned long long>(s.reordered),
                  static_cast<unsigned long long>(s.late_dropped),
                  static_cast<unsigned long long>(nf.never_sent),
                  static_cast<unsigned long long>(s.rejected_backpressure),
                  static_cast<unsigned long long>(s.duplicates),
                  static_cast<unsigned long long>(non_conforming));
    }
    const std::string at = " on node " + std::to_string(n);
    if (c.rows_offered != offered) {
      problems.push_back("offer() refused rows" + at);
    }
    if (c.rows_acked != offered || res.unacked[n] != 0) {
      problems.push_back("offered rows never acked" + at);
    }
    if (res.watermarks[n] != offered) {
      problems.push_back("server watermark != rows offered" + at);
    }
    if (non_conforming != 0) problems.push_back("non-conforming rows" + at);
    if (s.accepted != r.accepted || s.duplicates != r.duplicates ||
        s.reordered != r.reordered || s.late_dropped != r.late_dropped ||
        s.missing_rows != r.missing_rows ||
        s.windows_emitted != r.windows_emitted ||
        s.windows_dropped != r.windows_dropped ||
        s.windows_recomputed != r.windows_recomputed) {
      problems.push_back(
          "ingest accounting differs from the in-process replay" + at);
    }
  }
  for (const std::string& p : problems) report.breach(p);

  std::map<std::uint64_t, const Expected*> expected;
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (const Expected& e : refs[n].windows) {
      expected[window_id(static_cast<int>(n), e.start)] = &e;
    }
  }
  std::map<std::uint64_t, bool> seen;
  std::uint64_t mismatches = 0;
  for (const Verdict& v : res.verdicts) {
    const std::uint64_t id = window_id(v.node, v.start);
    const auto it = expected.find(id);
    if (it == expected.end()) {
      report.breach("served a window the reference never emitted");
      continue;
    }
    if (!seen.emplace(id, v.result.ok()).second) {
      report.breach("window served twice");
      continue;
    }
    if (!v.result.ok()) continue;
    const Expected& e = *it->second;
    bool same = v.raw_hash == e.raw_hash &&
                v.result.diagnosis.label == e.diagnosis.label &&
                v.result.diagnosis.probs.size() == e.diagnosis.probs.size();
    for (std::size_t k = 0; same && k < e.diagnosis.probs.size(); ++k) {
      same = bits_equal(v.result.diagnosis.probs[k], e.diagnosis.probs[k]);
    }
    if (!same) ++mismatches;
  }
  if (mismatches != 0) {
    report.breach(std::to_string(mismatches) +
                  " verdicts differ from DiagnosisService::diagnose");
  }
  std::uint64_t failed = 0;
  for (const auto& [id, e] : expected) {
    const auto it = seen.find(id);
    if (it == seen.end() || !it->second) ++failed;
  }
  report.attempted += expected.size();
  report.failed += failed;
}

/// Macro-F1 of the Ok verdicts against the label of the run each window's
/// middle row came from (the run most of a sliding window holds).
double verdict_macro_f1(const std::vector<NodeReference>& refs,
                        const RunResult& res) {
  std::map<std::uint64_t, int> truth;
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (const Expected& e : refs[n].windows) {
      truth[window_id(static_cast<int>(n), e.start)] = e.truth;
    }
  }
  std::vector<int> y_true;
  std::vector<int> y_pred;
  for (const Verdict& v : res.verdicts) {
    const auto it = truth.find(window_id(v.node, v.start));
    if (it == truth.end() || !v.result.ok()) continue;
    y_true.push_back(it->second);
    y_pred.push_back(v.result.diagnosis.label);
  }
  return macro_f1(y_true, y_pred, kNumClasses);
}

}  // namespace

bool is_online(const std::string& workload) {
  for (const OnlineSpec& s : kSpecs) {
    if (workload == s.name) return true;
  }
  return false;
}

std::string fixture_path(const std::string& dir, const std::string& workload) {
  return dir + "/" + workload + ".bundle";
}

void make_fixture(const std::string& workload, const std::string& path) {
  const OnlineSpec& spec = find_spec(workload);
  const DatasetConfig cfg = dataset_config(spec);
  const ExperimentData data = build_experiment_data(cfg);
  const SplitIndices split = make_split(data, cfg.test_fraction, 11);
  const PreparedSplit prepared = prepare_split(data, split, cfg.select_k);
  auto model = make_model_factory("rf", kNumClasses, 5)(
      table4_optimum("rf", spec.eclipse));
  model->fit(prepared.train_x, prepared.train_y);
  save_model_bundle_file(path, make_model_bundle(data, prepared, *model));
  std::printf("fixture: %s bundle (%zu samples, select_k %zu) -> %s\n",
              workload.c_str(), data.features.num_samples(), cfg.select_k,
              path.c_str());
}

Report run_online(const Args& args) {
  const OnlineSpec& spec = find_spec(args.workload);
  // Server (this thread) + generator + one host worker + the pool, which
  // single-window serving never dispatches to. Sized before its first use.
  setenv("ALBA_THREADS", "1", 1);
  check_envelope(args, 4, 1, kNodes);

  std::ifstream in(fixture_path(args.fixture_dir, args.workload),
                   std::ios::binary);
  if (!in) throw std::runtime_error("missing fixture bundle; run via run.py");
  const std::string bundle_bytes((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());

  const Clock::time_point epoch = Clock::now();
  ThreadTrace setup_trace("setup", epoch);
  ThreadTrace* setup_tr = args.trace ? &setup_trace : nullptr;
  const DatasetConfig cfg = dataset_config(spec);
  const StreamIngestConfig sc = stream_config(spec, cfg);
  const Feed feed = build_feed(spec, cfg, args, setup_tr);
  std::vector<NodeReference> refs = compute_reference(feed, bundle_bytes, cfg,
                                                      sc);
  std::size_t windows = 0;
  std::uint64_t rows = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    windows += refs[n].windows.size();
    rows += feed.nodes[n].offers.size();
  }
  std::printf("feed: %zu nodes x %llu rows (closed loop %llu), %llu offers, "
              "%zu reference windows, L=%zu S=%zu, open-loop rate %.0f "
              "rows/s\n",
              kNodes, static_cast<unsigned long long>(feed.total_rows),
              static_cast<unsigned long long>(feed.closed_rows),
              static_cast<unsigned long long>(rows), windows,
              spec.window_length, spec.stride, spec.offered_rows_per_s);

  Report report;
  if (!args.trace) {
    std::vector<double> setups;
    // (generator late p99, pass); every pass made is gated.
    std::vector<std::pair<double, RunResult>> passes;
    std::size_t valid = 0;
    while (valid < kPasses && passes.size() < kMaxPasses) {
      time_setup(spec, bundle_bytes, cfg, sc, args.seed, epoch, setups);
      RunResult res = run_phases(spec, cfg, sc, feed, refs, bundle_bytes,
                                 args, nullptr, nullptr, epoch);
      check_run(feed, refs, res, report, true);
      const double late_p99 = percentile(res.late_ms, 0.99);
      const bool ok = late_p99 <= kLateInvalidMs;
      std::printf("loadgen: pass %zu, late p99 %.3f ms over %zu rows%s\n",
                  passes.size() + 1, late_p99, res.late_ms.size(),
                  ok ? "" : " -- invalid: the generator fell behind its "
                            "schedule");
      valid += ok ? 1 : 0;
      passes.emplace_back(late_p99, std::move(res));
    }
    std::stable_sort(passes.begin(), passes.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    if (valid < kPasses) {
      std::printf("RUN INVALID: the generator fell behind its schedule on "
                  "%zu of %zu passes\n",
                  passes.size() - valid, passes.size());
    }
    passes.resize(kPasses);
    std::vector<double> rates;
    std::vector<double> latency(passes[0].second.latency.size());
    for (std::size_t w = 0; w < latency.size(); ++w) {
      std::vector<double> per_pass;
      for (const auto& p : passes) per_pass.push_back(p.second.latency[w]);
      latency[w] = median(per_pass);
    }
    std::printf("verdicts: pass p99s");
    for (const auto& p : passes) {
      rates.insert(rates.end(), p.second.rates.begin(), p.second.rates.end());
      std::printf(" %.3f", percentile(p.second.latency, 0.99));
    }
    const double p50 = percentile(latency, 0.5);
    const double p99 = percentile(latency, 0.99);
    std::printf(" ms; %zu open-loop windows, each its median over %zu "
                "passes: p50 %.3f ms, p99 %.3f ms; macro-F1 %.4f\n",
                latency.size(), kPasses, p50, p99,
                verdict_macro_f1(refs, passes[0].second));
    std::printf("set-up: median %.3f ms (quartiles %.3f .. %.3f) over %zu\n",
                1e3 * median(setups), 1e3 * percentile(setups, 0.25),
                1e3 * percentile(setups, 0.75), setups.size());
    report.set("setup_s", median(setups), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("work_per_s", median(rates), "1/s");
    report.set("wait_p50_ms", p50, "ms");
    report.set("wait_tail_ms", p99, "ms");
    return report;
  }

  // Traced run: the untraced phases first (for the overhead), then the
  // traced ones on a fresh set-up.
  const RunResult plain = run_phases(spec, cfg, sc, feed, refs, bundle_bytes,
                                     args, nullptr, nullptr, epoch);
  Report plain_report;
  check_run(feed, refs, plain, plain_report, false);
  ThreadTrace server_trace("server", epoch);
  ThreadTrace gen_trace("loadgen", epoch);
  const RunResult res = run_phases(spec, cfg, sc, feed, refs, bundle_bytes,
                                   args, &server_trace, &gen_trace, epoch);
  check_run(feed, refs, res, report, true);
  if (!plain_report.correct) report.breach("untraced pass failed its checks");
  const double push_us = timed_push_replay(feed, cfg, sc, setup_trace);

  const auto total = [](const ThreadTrace& t, const char* name) {
    const ThreadTrace::Totals* x = t.find(name);
    return x == nullptr ? 0.0 : x->total_s;
  };
  const ThreadTrace::Totals* poll = server_trace.find("streaming.poll");
  const double poll_s = poll ? poll->total_s : 0.0;
  const double wait_s = total(server_trace, "streaming.wait");
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t retransmits = 0;
  for (const WireClientStats& c : res.client_stats) {
    bytes += c.bytes_sent;
    frames += c.row_frames_sent;
    retransmits += c.retransmits;
  }
  const double diag_p99 = percentile(res.diagnose_ms, 0.99);
  const double poll_max = res.open_poll_max_ms;
  const double late_p99 = percentile(res.late_ms, 0.99);
  const double plain_p99 = percentile(plain.latency, 0.99);

  report.set("wire.client_busy_s", total(gen_trace, "wire.client"), "s");
  report.set("wire.bytes_per_row",
             frames ? static_cast<double>(bytes) / frames : 0.0, "B/row");
  report.set("wire.retransmits", static_cast<double>(retransmits), "count");
  report.set("wire.client_backlog_max", static_cast<double>(res.backlog_max),
             "rows");
  report.set("streaming.server_poll_busy_frac",
             poll_s + wait_s > 0 ? poll_s / (poll_s + wait_s) : 0.0, "ratio");
  report.set("streaming.server_poll_self_s", poll ? poll->self_s : 0.0, "s");
  report.set("streaming.server_poll_max_ms", poll_max, "ms");
  report.set("streaming.push_us_per_row", push_us, "us/row");
  report.set("streaming.windows_emitted",
             static_cast<double>(res.ingest_total.windows_emitted), "count");
  report.set("streaming.windows_recomputed",
             static_cast<double>(res.ingest_total.windows_recomputed),
             "count");
  report.set("streaming.late_dropped",
             static_cast<double>(res.ingest_total.late_dropped), "count");
  report.set("streaming.missing_rows",
             static_cast<double>(res.ingest_total.missing_rows), "count");
  report.set("serving.diagnose_p50_ms", percentile(res.diagnose_ms, 0.5),
             "ms");
  report.set("serving.diagnose_p99_ms", diag_p99, "ms");
  report.set("serving.busy_s", total(server_trace, "serving.diagnose"), "s");
  report.set("serving.extract_s", res.serving.extract_seconds, "s");
  report.set("serving.predict_s", res.serving.predict_seconds, "s");
  report.set("serving.queue_p99_ms", res.host.queue_p99_ms, "ms");
  report.set("serving.rejected_queue_full",
             static_cast<double>(res.host.rejected_queue_full), "count");
  report.set("serving.rejected_deadline",
             static_cast<double>(res.host.rejected_deadline), "count");
  report.set("serving.rejected_draining",
             static_cast<double>(res.host.rejected_draining), "count");
  report.set("serving.rejected_unhealthy",
             static_cast<double>(res.host.rejected_unhealthy), "count");
  report.set("serving.failed", static_cast<double>(res.host.failed), "count");
  report.set("serving.cache_hit_rate", res.serving.hit_rate(), "ratio");
  report.set("quality.macro_f1", verdict_macro_f1(refs, res), "ratio");
  report.set("telemetry.generate_s", total(setup_trace, "telemetry.generate"),
             "s");
  report.set("loadgen.rows_offered", static_cast<double>(res.offered),
             "count");
  report.set("loadgen.late_p99_ms", late_p99, "ms");
  report.set("loadgen.valid", late_p99 > kLateInvalidMs ? 0.0 : 1.0, "bool");
  const double covered = server_trace.root_s();
  report.set("trace.unattributed_frac",
             res.wall_s > 0 ? std::max(0.0, 1.0 - covered / res.wall_s) : 0.0,
             "ratio");
  report.set("trace.overhead_frac",
             plain.closed_rows_per_s / res.closed_rows_per_s - 1.0, "ratio");
  report.set("trace.spans",
             static_cast<double>(server_trace.recorded() +
                                 gen_trace.recorded() +
                                 setup_trace.recorded()),
             "count");

  std::printf(
      "stage budget (server thread, %.3f s wall): poll %.3f s (self %.3f s: "
      "decode + push + acks), diagnose %.3f s, wait %.3f s, collect %.3f s, "
      "unattributed %.1f%%\n",
      res.wall_s, poll_s, poll ? poll->self_s : 0.0,
      total(server_trace, "serving.diagnose"), wait_s,
      total(server_trace, "bench.collect"),
      100.0 * std::max(0.0, 1.0 - covered / res.wall_s));
  const double row_period_ms = 1e3 * kNodes / spec.offered_rows_per_s;
  std::printf(
      "stage budget: streaming.server_poll_max_ms=%.3f "
      "serving.diagnose_p99_ms=%.3f verdict_p99_ms=%.3f (untraced) -> inline "
      "diagnosis %s socket draining (one poll holds the loop %.1fx a node's "
      "row period of %.3f ms)\n",
      poll_max, diag_p99, plain_p99,
      poll_max > row_period_ms ? "STALLS" : "does not stall",
      poll_max / row_period_ms, row_period_ms);
  write_traces(args.trace_out, {&setup_trace, &server_trace, &gen_trace});
  return report;
}

}  // namespace e2e
