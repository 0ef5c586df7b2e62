// The unified serving interface: one request/response contract implemented
// by both serving tiers. A front end that feeds windows into serving (the
// streaming trigger in src/streaming, a replay tool, a test harness) is
// written once against it:
//
//   DiagnoseRequest  — a borrowed window view plus a deadline;
//   DiagnosisResult  — a typed RequestStatus, the Diagnosis when Ok, and
//                      the provenance/timing fields both tiers fill
//                      (generation, attempts, timings);
//   Diagnoser        — the abstract interface DiagnosisService and
//                      ServiceHost implement.
//
// Contract, uniform across tiers:
//   * diagnose never throws on overload, deadline, drain, health, or
//     pipeline failure — those are statuses (a shape mismatch against the
//     bundle is still a programming error and may throw);
//   * status == Ok implies the result met its deadline and `diagnosis` is
//     meaningful; any other status leaves `diagnosis` default;
//   * a tier without a concept fills the neutral value (a bare
//     DiagnosisService reports generation 1, attempts 1).
//
// ServiceHost has no other diagnose entry point.
// DiagnosisService keeps its library call `Diagnosis diagnose(const
// Matrix&)`, which throws instead of answering with a status. The free
// diagnose_with_retry works against any tier.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/backoff.hpp"
#include "common/deadline.hpp"

namespace alba {

class Matrix;

/// One window's diagnosis. `probs` has one entry per class, summing to 1;
/// `label` is its argmax and `confidence` the winning probability —
/// bit-identical to Classifier::predict on the offline pipeline's row.
struct Diagnosis {
  int label = 0;
  double confidence = 0.0;
  std::vector<double> probs;
};

/// Every way a served request can end. Ok is the only outcome carrying a
/// diagnosis; the four Rejected* values are the typed load-shedding
/// answers; Failed is a transient pipeline error (worth retrying, see
/// diagnose_with_retry).
enum class RequestStatus {
  Ok,
  RejectedQueueFull,   // admission queue at capacity
  RejectedDeadline,    // expired while queued, or finished past deadline
  RejectedDraining,    // tier is draining / shut down
  RejectedUnhealthy,   // health tripped; shed (probe trickle excepted)
  Failed,              // pipeline threw (e.g. extraction fault)
};

std::string_view to_string(RequestStatus status) noexcept;

/// True for the four load-shedding rejections (not Ok, not Failed).
bool is_rejection(RequestStatus status) noexcept;

/// Transient outcomes a caller should retry with backoff: a momentarily
/// full queue or a failed pipeline pass. Deadline/draining/unhealthy
/// rejections are deliberate shedding — retrying them defeats the tier.
bool is_retriable(RequestStatus status) noexcept;

/// One diagnosis request: a borrowed view of the raw T x M window plus the
/// deadline it must answer by. The window must stay alive for the duration
/// of the diagnose call (every tier's diagnose blocks, so a stack-owned
/// window is fine). A never() deadline means no deadline.
struct DiagnoseRequest {
  const Matrix* window = nullptr;
  Deadline deadline = Deadline::never();
};

/// One request's uniform outcome. `diagnosis` is meaningful only when
/// `status == Ok`; `generation` names the bundle that served it (0 = never
/// served); `attempts` counts the diagnose calls behind the answer (1 from
/// a tier's own diagnose, more from diagnose_with_retry); timings cover
/// queue wait and service time where the tier tracks them.
struct DiagnosisResult {
  RequestStatus status = RequestStatus::Failed;
  Diagnosis diagnosis;
  std::string error;        // what() of the pipeline failure, for Failed
  std::uint64_t generation = 0;
  std::size_t attempts = 1;
  double queue_ms = 0.0;    // admission -> dequeue (0 where untracked)
  double service_ms = 0.0;  // dequeue -> completion
  double total_ms = 0.0;    // admission -> completion (or rejection)

  bool ok() const noexcept { return status == RequestStatus::Ok; }
};

/// The tier-agnostic serving interface. Implementations: DiagnosisService
/// (bare pipeline) and ServiceHost (overload-safe host). See the contract
/// at the top of this header.
class Diagnoser {
 public:
  virtual ~Diagnoser() = default;

  virtual DiagnosisResult diagnose(const DiagnoseRequest& request) = 0;
};

/// diagnose + seeded-backoff retry of retriable outcomes (Failed,
/// RejectedQueueFull) against any tier, bounded by the request's deadline.
/// Rejections that express deliberate shedding are returned immediately;
/// when the deadline (not the tier) ends the retry loop, the answer is
/// RejectedDeadline. `attempts` on the result counts diagnose calls made.
DiagnosisResult diagnose_with_retry(Diagnoser& diagnoser,
                                    const DiagnoseRequest& request,
                                    const BackoffConfig& backoff);

}  // namespace alba
