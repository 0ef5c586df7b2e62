// Tests for the overload-safe serving layer: ServiceHost admission
// control, deadlines, typed load shedding, health breaker, drain, hot
// reload with rollback, and the chaos harness driving all of it. The
// concurrency tests in this file run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/temp_dir.hpp"
#include "core/pipeline.hpp"
#include "ml/grid_search.hpp"
#include "serving/chaos.hpp"
#include "serving/hot_reload.hpp"
#include "serving/model_bundle.hpp"
#include "serving/service_host.hpp"
#include "telemetry/run_generator.hpp"

namespace alba {
namespace {

// One tiny trained experiment with two different frozen models (so reloads
// have something to actually swap), shared by every test in this file.
struct HostEnv {
  DatasetConfig cfg = tiny_config();
  ExperimentData data;
  SplitIndices split;
  PreparedSplit prepared;
  std::unique_ptr<Classifier> model_a;  // random forest
  std::unique_ptr<Classifier> model_b;  // logistic regression
  std::string bundle_a;  // serialized bundles
  std::string bundle_b;
  std::vector<Matrix> windows;  // fresh raw windows, distinct contents
};

const HostEnv& env() {
  static const HostEnv* shared = [] {
    auto* e = new HostEnv;
    e->data = build_experiment_data(e->cfg);
    e->split = make_split(e->data, e->cfg.test_fraction, 5);
    e->prepared = prepare_split(e->data, e->split, e->cfg.select_k);

    ParamSet rf_params = table4_optimum("rf", false);
    rf_params["n_estimators"] = "15";
    e->model_a = make_model_factory("rf", kNumClasses, 9)(rf_params);
    e->model_a->fit(e->prepared.train_x, e->prepared.train_y);
    e->model_b = make_model_factory("lr", kNumClasses, 9)(
        table4_optimum("lr", false));
    e->model_b->fit(e->prepared.train_x, e->prepared.train_y);

    const auto freeze = [&](const Classifier& model) {
      std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
      save_model_bundle(ss, make_model_bundle(e->data, e->prepared, model));
      return ss.str();
    };
    e->bundle_a = freeze(*e->model_a);
    e->bundle_b = freeze(*e->model_b);

    const RunGenerator generator(e->cfg.system, e->cfg.registry, e->cfg.sim);
    for (int r = 0; r < 2; ++r) {
      RunSpec spec;
      spec.app_id = r % static_cast<int>(e->data.num_apps);
      spec.nodes = 2;
      if (r == 1) {
        spec.anomaly = kAnomalyTypes[0];
        spec.intensity = 1.0;
      }
      spec.run_id = 7000 + r;
      spec.seed = 4400 + static_cast<std::uint64_t>(r);
      for (Sample& s : generator.generate_run(spec)) {
        e->windows.push_back(std::move(s.series));
      }
    }
    return e;
  }();
  return *shared;
}

ModelBundle bundle_from_bytes(const std::string& bytes) {
  std::stringstream ss(bytes,
                       std::ios::in | std::ios::out | std::ios::binary);
  return load_model_bundle(ss);
}

std::shared_ptr<DiagnosisService> make_service(const std::string& bytes,
                                               ServingConfig config = {}) {
  return std::make_shared<DiagnosisService>(bundle_from_bytes(bytes),
                                            config);
}

// How long a test waits for another thread to reach a point before it
// fails instead of hanging until the ctest timeout.
constexpr auto kWaitBound = std::chrono::seconds(10);

// Polls `reached` every millisecond; once kWaitBound has passed, records a
// test failure naming `what` and returns so the test can unblock its
// threads and end.
template <typename Pred>
void wait_until(Pred reached, const char* what) {
  const auto give_up = std::chrono::steady_clock::now() + kWaitBound;
  while (!reached()) {
    if (std::chrono::steady_clock::now() > give_up) {
      ADD_FAILURE() << "gave up waiting for " << what;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// An extraction hook that parks the worker until the test releases it —
// the deterministic way to keep the queue occupied.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  std::function<void(const Matrix&)> hook() {
    return [this](const Matrix&) {
      entered.fetch_add(1);
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [this] { return open; });
    };
  }
  void wait_entered(int n) {
    wait_until([&] { return entered.load() >= n; },
               "a request to enter the gated pipeline");
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
};

void wait_submitted(const ServiceHost& host, std::uint64_t n) {
  wait_until([&] { return host.stats().submitted >= n; },
             "requests to reach admission");
}

// Runs host.diagnose(window) on a new thread under a deadline `ms` from
// the moment that thread starts, so a late thread start cannot expire the
// deadline before admission. Publishes the deadline through `deadline`.
std::future<DiagnosisResult> diagnose_async_within(
    ServiceHost& host, const Matrix& window, double ms,
    std::promise<Deadline>& deadline) {
  return std::async(std::launch::async, [&host, &window, ms, &deadline] {
    const Deadline d = Deadline::after_ms(ms);
    deadline.set_value(d);
    return host.diagnose({&window, d});
  });
}

// ------------------------------------------------------- typed statuses ---

TEST(RequestStatus, TypedHelpersCoverEveryStatus) {
  EXPECT_EQ(to_string(RequestStatus::Ok), "ok");
  EXPECT_EQ(to_string(RequestStatus::RejectedQueueFull),
            "rejected:queue_full");
  EXPECT_EQ(to_string(RequestStatus::RejectedDeadline),
            "rejected:deadline");
  EXPECT_EQ(to_string(RequestStatus::RejectedDraining),
            "rejected:draining");
  EXPECT_EQ(to_string(RequestStatus::RejectedUnhealthy),
            "rejected:unhealthy");
  EXPECT_EQ(to_string(RequestStatus::Failed), "failed");

  EXPECT_FALSE(is_rejection(RequestStatus::Ok));
  EXPECT_FALSE(is_rejection(RequestStatus::Failed));
  EXPECT_TRUE(is_rejection(RequestStatus::RejectedQueueFull));
  EXPECT_TRUE(is_rejection(RequestStatus::RejectedDeadline));
  EXPECT_TRUE(is_rejection(RequestStatus::RejectedDraining));
  EXPECT_TRUE(is_rejection(RequestStatus::RejectedUnhealthy));

  EXPECT_TRUE(is_retriable(RequestStatus::Failed));
  EXPECT_TRUE(is_retriable(RequestStatus::RejectedQueueFull));
  EXPECT_FALSE(is_retriable(RequestStatus::Ok));
  EXPECT_FALSE(is_retriable(RequestStatus::RejectedDeadline));
  EXPECT_FALSE(is_retriable(RequestStatus::RejectedDraining));
  EXPECT_FALSE(is_retriable(RequestStatus::RejectedUnhealthy));
}

// ----------------------------------------------------------- happy path ---

TEST(ServiceHost, ServesBitIdenticallyToTheBareService) {
  const HostEnv& e = env();
  auto reference_service = make_service(e.bundle_a);
  ServiceHost host(make_service(e.bundle_a));

  for (const Matrix& w : e.windows) {
    const DiagnosisResult r = host.diagnose({&w});
    ASSERT_TRUE(r.ok()) << to_string(r.status);
    EXPECT_EQ(r.generation, 1u);
    EXPECT_GE(r.total_ms, r.service_ms);
    const Diagnosis expected = reference_service->diagnose(w);
    EXPECT_EQ(r.diagnosis.label, expected.label);
    EXPECT_EQ(r.diagnosis.probs, expected.probs);
  }
  const HostStats s = host.stats();
  EXPECT_EQ(s.submitted, e.windows.size());
  EXPECT_EQ(s.completed, e.windows.size());
  EXPECT_EQ(s.rejected(), 0u);
  EXPECT_TRUE(host.ready());
  EXPECT_EQ(host.health(), HostHealth::Ready);
}

TEST(ServiceHost, ExpiredDeadlineIsRejectedAtAdmission) {
  const HostEnv& e = env();
  ServiceHost host(make_service(e.bundle_a));
  const DiagnosisResult r =
      host.diagnose({&e.windows[0], Deadline::after_ms(0.0)});
  EXPECT_EQ(r.status, RequestStatus::RejectedDeadline);
  EXPECT_EQ(r.generation, 0u);  // never reached a service
  EXPECT_EQ(host.stats().rejected_deadline, 1u);
  EXPECT_EQ(host.stats().completed, 0u);
}

// ----------------------------------------------------- admission control ---

TEST(ServiceHost, QueueFullRejectsImmediately) {
  const HostEnv& e = env();
  Gate gate;
  ServingConfig serving;
  serving.extraction_hook = gate.hook();
  HostConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  ServiceHost host(make_service(e.bundle_a, serving), config);

  auto r1 = std::async(std::launch::async,
                       [&] { return host.diagnose({&e.windows[0]}); });
  gate.wait_entered(1);  // the only worker is parked inside the pipeline
  auto r2 = std::async(std::launch::async,
                       [&] { return host.diagnose({&e.windows[1]}); });
  wait_submitted(host, 2);  // r2 occupies the single queue slot

  const DiagnosisResult r3 = host.diagnose({&e.windows[2]});
  EXPECT_EQ(r3.status, RequestStatus::RejectedQueueFull);

  gate.release();
  EXPECT_TRUE(r1.get().ok());
  EXPECT_TRUE(r2.get().ok());
  const HostStats s = host.stats();
  EXPECT_EQ(s.rejected_queue_full, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(ServiceHost, QueuedRequestPastDeadlineIsShedWithoutWork) {
  const HostEnv& e = env();
  Gate gate;
  ServingConfig serving;
  serving.extraction_hook = gate.hook();
  HostConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  ServiceHost host(make_service(e.bundle_a, serving), config);

  auto r1 = std::async(std::launch::async,
                       [&] { return host.diagnose({&e.windows[0]}); });
  gate.wait_entered(1);
  std::promise<Deadline> made;
  auto r2 = diagnose_async_within(host, e.windows[1], 20.0, made);
  const Deadline short_deadline = made.get_future().get();
  wait_submitted(host, 2);
  while (!short_deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  gate.release();

  EXPECT_TRUE(r1.get().ok());
  const DiagnosisResult shed = r2.get();
  EXPECT_EQ(shed.status, RequestStatus::RejectedDeadline);
  EXPECT_GT(shed.queue_ms, 0.0);   // admitted and queued, not refused
  EXPECT_EQ(shed.generation, 0u);  // shed at dequeue: no pipeline pass
  EXPECT_EQ(gate.entered.load(), 1);  // the shed request never extracted
  EXPECT_EQ(host.stats().rejected_deadline, 1u);
}

TEST(ServiceHost, LateCompletionIsReportedAsDeadlineMiss) {
  const HostEnv& e = env();
  Gate gate;
  ServingConfig serving;
  serving.extraction_hook = gate.hook();
  HostConfig config;
  config.workers = 1;
  ServiceHost host(make_service(e.bundle_a, serving), config);

  std::promise<Deadline> made;
  auto r1 = diagnose_async_within(host, e.windows[0], 20.0, made);
  const Deadline deadline = made.get_future().get();
  gate.wait_entered(1);  // admitted in time, now stuck mid-pipeline
  while (!deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  gate.release();

  const DiagnosisResult late = r1.get();
  EXPECT_EQ(late.status, RequestStatus::RejectedDeadline);
  EXPECT_TRUE(late.diagnosis.probs.empty());  // Ok must imply on-time
  const HostStats s = host.stats();
  EXPECT_EQ(s.deadline_misses, 1u);
  EXPECT_EQ(s.completed, 0u);
}

// ----------------------------------------------------------------- drain ---

TEST(ServiceHost, DrainCompletesAdmittedWorkAndShedsNew) {
  const HostEnv& e = env();
  Gate gate;
  ServingConfig serving;
  serving.extraction_hook = gate.hook();
  HostConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  ServiceHost host(make_service(e.bundle_a, serving), config);

  auto r1 = std::async(std::launch::async,
                       [&] { return host.diagnose({&e.windows[0]}); });
  gate.wait_entered(1);
  auto r2 = std::async(std::launch::async,
                       [&] { return host.diagnose({&e.windows[1]}); });
  wait_submitted(host, 2);

  auto drained = std::async(std::launch::async, [&] { host.drain(); });
  // Drain must wait for the parked worker, not abandon the queue.
  EXPECT_EQ(drained.wait_for(std::chrono::milliseconds(30)),
            std::future_status::timeout);
  EXPECT_EQ(host.health(), HostHealth::Draining);
  gate.release();
  drained.get();

  EXPECT_TRUE(r1.get().ok());
  EXPECT_TRUE(r2.get().ok());  // admitted before the drain: served
  const DiagnosisResult after = host.diagnose({&e.windows[2]});
  EXPECT_EQ(after.status, RequestStatus::RejectedDraining);
  EXPECT_FALSE(host.ready());
  host.drain();  // idempotent
}

// Many drain() callers racing a diagnose storm and a hot reload: every
// caller must return, every request must carry a typed outcome, and
// nothing admitted before the drain may be dropped. TSan target.
TEST(ServiceHost, ConcurrentDrainsAreIdempotentAndLoseNoAdmittedWork) {
  const HostEnv& e = env();
  HostConfig config;
  config.workers = 2;
  config.queue_capacity = 16;
  ServiceHost host(make_service(e.bundle_a), config);
  host.set_probe_windows({e.windows[0]});

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const Matrix& w = e.windows[(c * kPerClient + i) % e.windows.size()];
        const DiagnosisResult r = host.diagnose({&w});
        if (r.ok()) {
          ok.fetch_add(1);
        } else {
          ASSERT_TRUE(is_rejection(r.status)) << to_string(r.status);
          rejected.fetch_add(1);
        }
      }
    });
  }
  // A reload racing the drain must resolve to a typed report either way:
  // swapped before the drain won, or refused after it.
  threads.emplace_back([&] {
    const ReloadReport report = host.reload(bundle_from_bytes(e.bundle_b));
    EXPECT_TRUE(report.ok || !report.error.empty());
  });
  wait_submitted(host, 1);  // ensure the drains race live traffic
  for (int d = 0; d < 3; ++d) {
    threads.emplace_back([&] { host.drain(); });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(host.health(), HostHealth::Draining);
  EXPECT_FALSE(host.ready());
  const HostStats s = host.stats();
  // Conservation: every client call is accounted for exactly once.
  EXPECT_EQ(ok.load() + rejected.load(),
            static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(s.completed, ok.load());
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.completed + s.rejected(), s.submitted);
  // Post-drain traffic is typed, and further drains stay no-ops.
  EXPECT_EQ(host.diagnose({&e.windows[1]}).status,
            RequestStatus::RejectedDraining);
  host.drain();
  host.drain();
}

// ---------------------------------------------------------------- health ---

TEST(ServiceHost, HealthBreakerTripsAndRecoversThroughProbes) {
  const HostEnv& e = env();
  std::atomic<bool> failing{true};
  ServingConfig serving;
  serving.extraction_hook = [&](const Matrix&) {
    if (failing.load()) throw Error("injected extraction failure");
  };
  HostConfig config;
  config.workers = 1;
  config.health_window = 8;
  config.health_min_samples = 4;
  config.unhealthy_error_rate = 0.5;
  config.probe_every = 2;
  ServiceHost host(make_service(e.bundle_a, serving), config);

  // Exactly health_min_samples failures trip the breaker; request five
  // would already be shed.
  for (int i = 0; i < 4; ++i) {
    const DiagnosisResult r = host.diagnose({&e.windows[i % e.windows.size()]});
    EXPECT_EQ(r.status, RequestStatus::Failed);
    EXPECT_NE(r.error.find("injected"), std::string::npos);
  }
  EXPECT_EQ(host.health(), HostHealth::Unhealthy);
  EXPECT_FALSE(host.ready());

  // While unhealthy, most submissions shed but a 1-in-N trickle probes.
  std::size_t shed = 0;
  std::size_t probed = 0;
  for (int i = 0; i < 8; ++i) {
    const DiagnosisResult r = host.diagnose({&e.windows[i % e.windows.size()]});
    if (r.status == RequestStatus::RejectedUnhealthy) ++shed;
    if (r.status == RequestStatus::Failed) ++probed;
  }
  EXPECT_EQ(shed, 4u);
  EXPECT_EQ(probed, 4u);
  EXPECT_EQ(host.stats().health_probes, 4u);

  // The fault clears; successful probes refill the window and close the
  // breaker again.
  failing = false;
  int attempts = 0;
  while (!host.ready() && attempts < 200) {
    (void)host.diagnose({&e.windows[attempts % e.windows.size()]});
    ++attempts;
  }
  EXPECT_TRUE(host.ready()) << "breaker never recovered";
  EXPECT_TRUE(host.diagnose({&e.windows[0]}).ok());
}

// ------------------------------------------------------------ hot reload ---

TEST(ServiceHost, ReloadSwapsGenerationAndInvalidatesCachedAnswers) {
  const HostEnv& e = env();
  ServiceHost host(make_service(e.bundle_a));
  host.set_probe_windows({e.windows[0]});

  const DiagnosisResult before = host.diagnose({&e.windows[1]});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.generation, 1u);

  const ReloadReport report = host.reload(bundle_from_bytes(e.bundle_b));
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(report.probes_run, 1u);
  EXPECT_EQ(report.generation, 2u);
  EXPECT_EQ(host.generation(), 2u);
  EXPECT_EQ(host.stats().reloads_ok, 1u);

  // The swapped-in service must answer from the new bundle, never with
  // an answer of the old one: bit-identical to a fresh model-B service.
  const DiagnosisResult after = host.diagnose({&e.windows[1]});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.generation, 2u);
  auto fresh_b = make_service(e.bundle_b);
  const Diagnosis expected = fresh_b->diagnose(e.windows[1]);
  EXPECT_EQ(after.diagnosis.label, expected.label);
  EXPECT_EQ(after.diagnosis.probs, expected.probs);
}

TEST(ServiceHost, PoisonedBundleReloadRollsBack) {
  const HostEnv& e = env();
  const ScopedTempDir dir;
  const std::string good_path = dir.file("reload_good.bin");
  const std::string bad_path = dir.file("reload_bad.bin");
  save_model_bundle_file(good_path, bundle_from_bytes(e.bundle_b));

  ServiceHost host(make_service(e.bundle_a));
  host.set_probe_windows({e.windows[0]});
  const DiagnosisResult before = host.diagnose({&e.windows[1]});
  ASSERT_TRUE(before.ok());

  for (const BundlePoison poison :
       {BundlePoison::Truncate, BundlePoison::BadMagic}) {
    write_poisoned_bundle(good_path, bad_path, poison, 33);
    const ReloadReport report = host.reload_from_file(bad_path);
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.rolled_back);
    EXPECT_FALSE(report.error.empty());
    EXPECT_EQ(report.generation, 1u);
  }
  // A bit flip may or may not defeat validation; either way the host must
  // survive and keep a consistent generation.
  write_poisoned_bundle(good_path, bad_path, BundlePoison::BitFlip, 34);
  const ReloadReport flip = host.reload_from_file(bad_path);
  EXPECT_TRUE(flip.ok || flip.rolled_back);
  EXPECT_EQ(host.stats().reloads_failed + host.stats().reloads_ok, 3u);

  if (!flip.ok) {
    // The old bundle must still serve, bit-identically to before.
    const DiagnosisResult after = host.diagnose({&e.windows[1]});
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.generation, 1u);
    EXPECT_EQ(after.diagnosis.probs, before.diagnosis.probs);
  }
  // A missing file is a typed failure too, not a crash.
  const ReloadReport missing =
      host.reload_from_file("/nonexistent/bundle.bin");
  EXPECT_FALSE(missing.ok);
  EXPECT_TRUE(missing.rolled_back);
}

TEST(ServiceHost, ProbeValidationCatchesBundleProbeMismatch) {
  const HostEnv& e = env();
  ServiceHost host(make_service(e.bundle_a));
  // Probes a valid bundle can never answer (wrong metric count): the
  // reload must fail in validation, before the swap.
  host.set_probe_windows({Matrix(40, 3)});
  const ReloadReport report = host.reload(bundle_from_bytes(e.bundle_b));
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.rolled_back);
  EXPECT_EQ(host.generation(), 1u);
  // The original service — untouched by the failed reload — still serves.
  EXPECT_TRUE(host.diagnose({&e.windows[0]}).ok());
}

// ----------------------------------------------------------------- retry ---

TEST(ServiceHost, RetryWithBackoffRecoversFromTransientFailures) {
  const HostEnv& e = env();
  std::atomic<int> calls{0};
  ServingConfig serving;
  serving.extraction_hook = [&](const Matrix&) {
    if (calls.fetch_add(1) < 2) throw Error("transient");
  };
  ServiceHost host(make_service(e.bundle_a, serving));

  BackoffConfig backoff;
  backoff.max_attempts = 5;
  backoff.initial_delay_ms = 0.5;
  backoff.seed = 7;
  const DiagnosisResult r = diagnose_with_retry(
      host, DiagnoseRequest{&e.windows[0], Deadline::never()}, backoff);
  EXPECT_TRUE(r.ok()) << to_string(r.status) << ": " << r.error;
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
  const HostStats s = host.stats();
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.completed, 1u);
}

// ----------------------------------------------- concurrency (TSan target) ---

// Clients hammer the host while another thread hot-reloads between two
// bundles and a third polls health/stats: no race, no torn answer — every
// Ok result is bit-identical to the generation that served it.
TEST(ServiceHost, ConcurrentServeReloadAndStatsAreRaceFree) {
  const HostEnv& e = env();
  auto ref_a = make_service(e.bundle_a);
  auto ref_b = make_service(e.bundle_b);
  std::vector<Diagnosis> expect_a;
  std::vector<Diagnosis> expect_b;
  for (const Matrix& w : e.windows) {
    expect_a.push_back(ref_a->diagnose(w));
    expect_b.push_back(ref_b->diagnose(w));
  }

  HostConfig config;
  config.workers = 2;
  config.queue_capacity = 16;
  ServiceHost host(make_service(e.bundle_a), config);
  host.set_probe_windows({e.windows[0]});

  constexpr int kClients = 3;
  constexpr int kIters = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t w =
            static_cast<std::size_t>(t + i) % e.windows.size();
        const DiagnosisResult r = host.diagnose({&e.windows[w]});
        if (!r.ok()) continue;  // shed under reload churn is fine
        const Diagnosis& want =
            r.generation % 2 == 1 ? expect_a[w] : expect_b[w];
        if (r.diagnosis.probs != want.probs ||
            r.diagnosis.label != want.label) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 4; ++i) {
      const ReloadReport report = host.reload(bundle_from_bytes(
          i % 2 == 0 ? e.bundle_b : e.bundle_a));
      if (!report.ok) mismatches.fetch_add(1000);
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 40; ++i) {
      (void)host.health();
      (void)host.stats();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(host.generation(), 5u);  // 1 + four successful reloads
  const HostStats s = host.stats();
  EXPECT_EQ(s.reloads_ok, 4u);
  EXPECT_EQ(s.completed + s.failed + s.rejected(),
            static_cast<std::uint64_t>(kClients * kIters));
  EXPECT_EQ(s.failed, 0u);
  host.drain();
  EXPECT_EQ(host.health(), HostHealth::Draining);
}

// --------------------------------------------------------- chaos harness ---

TEST(ServingChaos, ValidatesRatesAndStaysInertWhenDisabled) {
  EXPECT_THROW(ServingChaos(ChaosConfig{.slow_extract_rate = 1.5}), Error);
  EXPECT_THROW(ServingChaos(ChaosConfig{.extract_fail_rate = -0.1}), Error);
  ChaosConfig off;
  EXPECT_FALSE(off.enabled());
  ServingChaos chaos(off);
  auto hook = chaos.hook();
  const Matrix w(4, 2);
  for (int i = 0; i < 10; ++i) hook(w);
  EXPECT_EQ(chaos.extractions_seen(), 10u);
  EXPECT_EQ(chaos.slowdowns_injected(), 0u);
  EXPECT_EQ(chaos.failures_injected(), 0u);
}

TEST(ServingChaos, InjectsFailuresAtTheConfiguredRateDeterministically) {
  ChaosConfig config;
  config.extract_fail_rate = 0.5;
  config.seed = 11;
  const auto run = [&config] {
    ServingChaos chaos(config);
    auto hook = chaos.hook();
    const Matrix w(4, 2);
    std::uint64_t failures = 0;
    for (int i = 0; i < 200; ++i) {
      try {
        hook(w);
      } catch (const Error&) {
        ++failures;
      }
    }
    EXPECT_EQ(failures, chaos.failures_injected());
    return failures;
  };
  const std::uint64_t first = run();
  EXPECT_EQ(first, run());  // same seed, same schedule
  EXPECT_GT(first, 60u);    // ~100 expected at rate 0.5
  EXPECT_LT(first, 140u);
  config.seed = 12;
  EXPECT_NE(first, run());  // different stream
}

TEST(ServingChaos, HostedServiceSurvivesChaosWithTypedOutcomesOnly) {
  const HostEnv& e = env();
  ChaosConfig chaos_config;
  chaos_config.extract_fail_rate = 0.3;
  chaos_config.slow_extract_rate = 0.2;
  chaos_config.slow_extract_ms = 2.0;
  chaos_config.seed = 21;
  ServingChaos chaos(chaos_config);
  ServingConfig serving;
  serving.extraction_hook = chaos.hook();
  HostConfig config;
  config.workers = 2;
  config.queue_capacity = 4;
  config.unhealthy_error_rate = 1.0;  // strict >: never trips, pure soak
  ServiceHost host(make_service(e.bundle_a, serving), config);

  std::size_t ok = 0;
  std::size_t failed = 0;
  for (int i = 0; i < 40; ++i) {
    const DiagnosisResult r = host.diagnose({&e.windows[i % e.windows.size()]});
    switch (r.status) {
      case RequestStatus::Ok: ++ok; break;
      case RequestStatus::Failed:
        ++failed;
        EXPECT_NE(r.error.find("chaos"), std::string::npos) << r.error;
        break;
      default:
        FAIL() << "unexpected status " << to_string(r.status);
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(chaos.failures_injected(), failed);
  EXPECT_GT(chaos.slowdowns_injected(), 0u);
  host.drain();  // a chaos-soaked host must still drain cleanly
}

// Failover without a second replica: the same seeded fault schedule, but
// every window goes through diagnose_with_retry. Each injected failure
// costs one extra attempt on the same host, and every request still ends
// Ok with the bare service's exact answer.
TEST(ServingChaos, RetryOnOneHostRecoversEveryChaosFailure) {
  const HostEnv& e = env();
  ChaosConfig chaos_config;
  chaos_config.extract_fail_rate = 0.3;
  chaos_config.slow_extract_rate = 0.2;
  chaos_config.slow_extract_ms = 2.0;
  chaos_config.seed = 21;
  ServingChaos chaos(chaos_config);
  ServingConfig serving;
  serving.extraction_hook = chaos.hook();
  HostConfig config;
  config.workers = 2;
  config.queue_capacity = 4;
  config.unhealthy_error_rate = 1.0;  // strict >: never trips, pure soak
  ServiceHost host(make_service(e.bundle_a, serving), config);
  auto reference_service = make_service(e.bundle_a);

  // One client, so extraction events run in request order and the seeded
  // schedule fixes every request's attempt count. Seed 21 fails 21
  // extractions over these 40 requests, at most three in a row, so eight
  // attempts leave room to spare.
  BackoffConfig backoff;
  backoff.max_attempts = 8;
  backoff.initial_delay_ms = 0.1;
  backoff.max_delay_ms = 1.0;
  backoff.seed = 5;
  std::uint64_t retries = 0;
  for (int i = 0; i < 40; ++i) {
    const Matrix& w = e.windows[i % e.windows.size()];
    const DiagnosisResult r = diagnose_with_retry(host, {&w}, backoff);
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << to_string(r.status)
                        << " after " << r.attempts << " attempts: "
                        << r.error;
    const Diagnosis expected = reference_service->diagnose(w);
    EXPECT_EQ(r.diagnosis.label, expected.label);
    EXPECT_EQ(r.diagnosis.probs, expected.probs);
    retries += r.attempts - 1;
  }
  const HostStats s = host.stats();
  EXPECT_GT(s.failed, 0u);
  EXPECT_EQ(s.failed, chaos.failures_injected());
  EXPECT_EQ(retries, s.failed);
  EXPECT_EQ(s.completed, 40u);
  EXPECT_EQ(s.rejected(), 0u);
  EXPECT_EQ(s.submitted, 40u + s.failed);
  host.drain();
}

}  // namespace
}  // namespace alba
