#ifndef DLSYS_SERVE_ADMISSION_H_
#define DLSYS_SERVE_ADMISSION_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/core/status.h"

/// \file admission.h
/// \brief Server configuration, validation, and the admission policy.
///
/// Under overload a serving system must shed, not queue: an unbounded
/// queue turns excess offered load into unbounded latency for everyone
/// (the classic open-loop collapse). Admission is decided at arrival from
/// two tests — a hard per-model queue bound, and a deadline-feasibility
/// check that predicts when the request's batch would finish under the
/// declared service-cost model. Both inputs are simulated quantities
/// (queue state and modeled service time, never wall-clock measurements),
/// so the same arrival sequence replays to the same accept/shed decisions
/// bit for bit at any DLSYS_THREADS — the property test_serve locks in.
///
/// The decision function is pure (state in, verdict out) so it can be
/// unit-tested without a Server and reused by other front doors.

namespace dlsys {

/// \brief Batch coalescing policy: a batch dispatches when max_batch
/// requests are pending, or when its oldest member has waited
/// max_delay_ms of simulated time — whichever comes first.
struct BatchPolicy {
  int64_t max_batch = 16;     ///< dispatch when this many are pending
  double max_delay_ms = 1.0;  ///< dispatch when the oldest waited this long
};

/// \brief Linear model of engine service time for one dispatched batch.
///
/// Admission and scheduling never consult wall-clock measurements (that
/// would make shed decisions irreproducible); they use this declared
/// model: service_ms(b) = fixed_ms + per_example_ms * b.
struct ServiceCostModel {
  double fixed_ms = 0.05;        ///< per-dispatch overhead
  double per_example_ms = 0.01;  ///< marginal cost per batched example
};

/// \brief Modeled service time for a batch of \p batch_size examples.
double EstimateServiceMs(const ServiceCostModel& cost, int64_t batch_size);

/// \brief QoS contract of one tenant: a token-bucket quota plus its
/// weighted-fair share and priority class.
///
/// Quotas shape *service order*, not admission: a tenant past its rate
/// waits for tokens instead of being turned away, and the wait feeds the
/// deadline-feasibility test, so sustained abuse converts into deadline
/// sheds charged to the abuser rather than queueing delay charged to
/// everyone (the paper's Part-3 who-gets-served question, answered at
/// the systems layer).
struct TenantPolicy {
  /// Sustained token refill in requests per simulated second; <= 0 means
  /// unlimited (no quota applied).
  double rate_rps = 0.0;
  /// Bucket depth in requests (>= 1): how far a tenant may burst above
  /// its sustained rate.
  double burst = 8.0;
  /// Deficit-weighted-fair share (> 0): a weight-2 tenant is offered
  /// twice the slots of a weight-1 tenant when both are backlogged.
  double weight = 1.0;
  /// Priority class in [0, priority_classes): class 0 is served strictly
  /// before class 1, and so on.
  int priority = 0;
};

/// \brief Configuration of the continuous-batching slot scheduler.
struct SlotSchedulerConfig {
  /// Selects the slot scheduler. The legacy FIFO-prefix batching path
  /// stays the default for one release migration window; it is retired
  /// next release.
  bool use_slots = false;
  /// Slot lanes per worker; each lane holds one in-flight request. 0
  /// selects batch.max_batch (a full engine batch per worker).
  int slots_per_worker = 0;
  /// Number of strict priority classes (>= 1).
  int priority_classes = 1;
  /// Deficit-weighted-fair selection across tenants. Off, freed slots
  /// fill in global FIFO order — the starvation control the fairness
  /// test demonstrates.
  bool fair_queueing = true;
  /// Token-bucket quota enforcement. Off, every tenant is unlimited.
  bool enforce_quotas = true;
  /// Policy applied to tenants without an explicit entry below.
  TenantPolicy default_policy;
  /// Per-tenant overrides, keyed by tenant name.
  std::map<std::string, TenantPolicy> tenants;
};

/// \brief Front-door configuration for a Server.
struct ServerConfig {
  /// Engine replicas serving concurrently; each runs one dispatched
  /// batch at a time on the worker pool.
  int workers = 2;
  /// Per-model bound on admitted-but-undispatched requests. Admission
  /// sheds (never blocks, never queues past this) when a model's queue
  /// is full. Must be >= batch.max_batch so one full batch can form.
  int64_t queue_capacity = 64;
  /// Batch coalescing policy; see BatchPolicy.
  BatchPolicy batch;
  /// Deadline budget applied when Submit passes no explicit deadline.
  double default_deadline_ms = 50.0;
  /// The declared service-time model used for admission and scheduling.
  ServiceCostModel cost;
  /// Continuous-batching slot scheduler with multi-tenant QoS; see
  /// SlotSchedulerConfig. Default off (legacy FIFO path) this release.
  SlotSchedulerConfig scheduler;
};

/// \brief Validates every user-settable field of \p config: worker count
/// >= 1, queue bound >= max_batch >= 1, non-negative finite delay,
/// positive finite deadline, non-negative finite cost terms, and the
/// slot-scheduler QoS block (slot count, priority classes, per-tenant
/// rate/burst/weight/priority). Returns InvalidArgument on the first
/// violation — configuration is user input, so errors surface as Status,
/// not DLSYS_CHECK aborts.
Status ValidateServerConfig(const ServerConfig& config);

/// \brief Why a request was turned away. Every shed is attributed to
/// exactly one structured reason and exported as its own
/// `serve.shed.<reason>` counter (no aggregate shed count survives) so
/// chaos-suite post-mortems can tell overload, infeasibility, drains,
/// and routing blackouts apart.
enum class ShedReason {
  kQueueFull,           ///< the model's bounded queue is at capacity
  kDeadlineInfeasible,  ///< predicted completion already misses the deadline
  kDraining,            ///< the replica is draining ahead of scale-down
  kUnhealthyReplica,    ///< the router found no healthy replica to take it
};

/// \brief Stable counter-key suffix for \p reason ("queue_full", ...).
const char* ShedReasonName(ShedReason reason);

/// \brief Verdict of the admission test for one arriving request.
enum class AdmissionDecision {
  kAdmit,
  kShedQueueFull,  ///< ShedReason::kQueueFull
  kShedDeadline,   ///< ShedReason::kDeadlineInfeasible
  kShedDraining,   ///< ShedReason::kDraining
};

/// \brief Everything the admission policy looks at, all simulated.
struct AdmissionInputs {
  int64_t queue_depth = 0;        ///< undispatched requests for the model
  int64_t prospective_batch = 0;  ///< batch size if this request joins
  double batch_ready_ms = 0.0;    ///< when that batch could dispatch
  double earliest_worker_free_ms = 0.0;
  double arrival_ms = 0.0;
  double deadline_budget_ms = 0.0;  ///< relative to arrival; > 0
  bool draining = false;  ///< replica is emptying ahead of a scale-down
};

/// \brief Pure admission decision: drain state first (a draining replica
/// takes nothing new), then the bounded queue (\p queue_capacity), then
/// deadline feasibility under \p cost — the declared model with any
/// fault scale already applied. Deterministic.
AdmissionDecision DecideAdmission(int64_t queue_capacity,
                                  const ServiceCostModel& cost,
                                  const AdmissionInputs& in);

}  // namespace dlsys

#endif  // DLSYS_SERVE_ADMISSION_H_
