#ifndef DLSYS_SERVE_SERVER_H_
#define DLSYS_SERVE_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/status.h"
#include "src/obs/attribution.h"
#include "src/runtime/thread_pool.h"
#include "src/serve/admission.h"
#include "src/serve/registry.h"
#include "src/serve/scheduler.h"
#include "src/serve/slots.h"

/// \file server.h
/// \brief The serving front door: bounded queues, deadline-aware
/// admission, and an SLO-tracked worker pool over hot-swappable models.
///
/// ## Simulated decisions, real execution
///
/// Every *decision* the server makes — admit or shed, which requests
/// share a batch, which worker runs it, when it starts and finishes —
/// is computed over a simulated clock from the declared ServiceCostModel,
/// never from wall-clock measurements. Every *output* is real: dispatched
/// batches run through the compiled InferenceEngine replicas on actual
/// threads. The split buys both halves of the reproducibility story: a
/// fixed arrival sequence replays bit for bit (same sheds, same batches,
/// same versions, same outputs) at any DLSYS_THREADS, while the engine
/// wall time is still measured and reported as an informational metric
/// (`Completion::measured_service_ms`), so benches can compare the model
/// against reality.
///
/// ## Two scheduling modes
///
/// With `config.scheduler.use_slots` off (the default this release) the
/// server batches version-homogeneous FIFO prefixes per model queue,
/// coalescing up to batch.max_delay_ms — the legacy PR-4 path. With it
/// on, the server runs *continuous batching* over a fixed pool of
/// per-worker request slots (src/serve/slots.h): a freed slot refills
/// immediately from the TenantScheduler (src/serve/scheduler.h) under
/// priority classes, per-tenant token-bucket quotas, and deficit-
/// weighted-fair queueing, and an idle worker dispatches whatever is
/// loaded without waiting for a batch to fill or drain.
///
/// Only that batch-forming decision differs between the modes. Both
/// carry each admitted request as one SlotRequest record, stage a formed
/// batch through the same routine (flush the wave if the replica is
/// already staged, copy inputs into staging, mark the worker busy), and
/// keep one per-tenant tally (TenantStats) whose sums are the
/// server-wide counts metrics() reports.
///
/// ## Version binding and hot swap
///
/// Each admitted request binds the model snapshot current *at admission*
/// (one registry Acquire). Batches are version-homogeneous in both modes
/// (slot loading never mixes snapshots within a worker's pending lanes),
/// so a Publish mid-load never mixes versions inside a batch and never
/// loses a request: queued requests finish on the snapshot they bound.
///
/// ## Threading contract
///
/// Submit/AdvanceTo/Drain and the accessors form a single-threaded event
/// loop — call them from one thread. Publish (and the registry) is
/// thread-safe and may run concurrently with serving; that is the hot-swap
/// path test_serve exercises under TSan. Dispatched batches execute on the
/// server's own ThreadPool: simulated-concurrent batches run as one
/// fork-join wave, each on its bound snapshot's per-worker replica, so no
/// engine workspace is ever shared between threads.

namespace dlsys {

/// \brief Coordinates admission, batching, and execution for all models
/// in a ModelRegistry.
class Server {
 public:
  /// \brief What happened to one submitted request.
  enum class Outcome {
    kAdmitted,
    kShedQueueFull,
    kShedDeadline,
    kShedDraining,
    kNoSuchModel,
  };

  /// \brief Submit verdict; \p id is assigned to every offered request,
  /// \p version is the snapshot version the request bound (0 if none).
  struct SubmitResult {
    Outcome outcome = Outcome::kNoSuchModel;
    int64_t id = -1;
    int64_t version = 0;
  };

  /// \brief One finished request, in dispatch order.
  struct Completion {
    int64_t id = 0;
    /// Trace rid: the fleet-global request id when Submit carried a
    /// RequestTrace, else the server-assigned id — the key every sim
    /// span of this request was emitted under.
    int64_t rid = 0;
    std::string model;
    std::string tenant;         ///< normalized tenant id ("default" if none)
    int64_t version = 0;        ///< snapshot version bound at admission
    double arrival_ms = 0.0;    ///< simulated
    /// Simulated time the tenant's quota funded the request, clamped to
    /// [arrival_ms, dispatch_ms] — the quota-delay / slot-wait boundary
    /// of the critical-path decomposition. arrival_ms in legacy mode.
    double quota_open_ms = 0.0;
    double dispatch_ms = 0.0;   ///< simulated batch start
    double finish_ms = 0.0;     ///< dispatch + modeled service time
    double deadline_ms = 0.0;   ///< absolute simulated deadline
    int64_t batch_size = 0;     ///< requests sharing the dispatch
    int worker = 0;             ///< replica index that executed it
    int slot = -1;              ///< slot-pool lane (-1 in legacy mode)
    bool deadline_missed = false;  ///< finish_ms > deadline_ms
    /// Real wall time of the batch's engine call (informational only;
    /// never feeds scheduling).
    double measured_service_ms = 0.0;
    Tensor output;  ///< real engine output, example_output_shape
  };

  /// \brief Validates \p config and builds a server over \p registry
  /// (borrowed; must outlive the server).
  static Result<std::unique_ptr<Server>> Create(ModelRegistry* registry,
                                                const ServerConfig& config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Compiles \p net into one replica per worker and publishes it
  /// as the next version of \p model. The engine batch ceiling is raised
  /// to the server's batch.max_batch if \p engine_config declares less.
  /// Thread-safe; may run concurrently with the serving loop (hot swap).
  Result<int64_t> Publish(const std::string& model, const Sequential& net,
                          const Shape& example_shape,
                          const EngineConfig& engine_config = {});

  /// \brief Offers one request at simulated time \p arrival_ms (monotone;
  /// checked). \p example must match the model's per-example input shape.
  /// \p deadline_budget_ms <= 0 selects config.default_deadline_ms.
  /// \p tenant attributes the request for QoS and accounting; empty maps
  /// to "default".
  ///
  /// Order of operations: dispatch every batch due strictly before
  /// arrival_ms, then decide admission against the declared cost model
  /// (in slot mode the prediction folds in the tenant's token-bucket
  /// wait and the slot backlog), then (if admitted) enqueue and dispatch
  /// anything due at arrival_ms — so a batch whose delay expires exactly
  /// now coalesces this request, and a slot freed exactly now takes it.
  ///
  /// \p rtrace, when non-null, is the fleet's request context: every sim
  /// span and instant this request emits is keyed by rtrace->rid instead
  /// of the server-assigned id, and its spans parent under the fleet's
  /// root request span — the distributed-tracing hook.
  SubmitResult Submit(const std::string& model, const Tensor& example,
                      double arrival_ms, double deadline_budget_ms = 0.0,
                      const std::string& tenant = std::string(),
                      const obs::RequestTrace* rtrace = nullptr);

  /// \brief Advances the simulated clock to \p now_ms (monotone; checked),
  /// dispatching every batch whose dispatch time is due, and executes
  /// them for real as one fork-join wave.
  void AdvanceTo(double now_ms);

  /// \brief Earliest simulated time a pending batch becomes dispatchable,
  /// or -1 when all queues are empty. Drives event loops:
  /// `AdvanceTo(max(clock_ms(), NextActionableMs()))`.
  double NextActionableMs() const;

  /// \brief Dispatches and executes everything still queued.
  void Drain();

  /// \brief Marks the server draining (true) or serving (false). While
  /// draining every Submit sheds with Outcome::kShedDraining; queued work
  /// still dispatches, which is the graceful half of a fleet scale-down.
  void SetDraining(bool draining) { draining_ = draining; }
  bool draining() const { return draining_; }

  /// \brief Scales the declared service-cost model by \p scale (>= 0) for
  /// every *future* admission and dispatch decision — how the fleet
  /// stages a gray failure (slow replica) or a slow bad model version on
  /// the simulated clock. Already-dispatched batches keep their stamped
  /// finish times. Deterministic: callers set it at simulated times.
  void SetCostScale(double scale) { cost_scale_ = scale; }
  double cost_scale() const { return cost_scale_; }

  /// \brief Discards every admitted-but-undispatched request (a crash
  /// loses its queue) and returns how many died. Completions are not
  /// produced for them; the caller owns the accounting.
  int64_t DropQueued();

  /// \brief Admitted-but-undispatched requests across all models — the
  /// load signal fleet routers compare replicas by.
  int64_t queue_depth() const;

  /// \brief Simulated time the least-busy worker frees up (clock_ms when
  /// idle); the router's backlog tiebreaker.
  double earliest_worker_free_ms() const;

  /// \brief Current simulated time.
  double clock_ms() const { return clock_ms_; }
  /// \brief Every completion since the server was built (or since the
  /// last TakeCompletions), in dispatch order.
  const std::vector<Completion>& completions() const { return completions_; }
  /// \brief Moves those completions into \p out (its old contents are
  /// discarded) and leaves completions() empty. The two vectors trade
  /// storage, so a caller that takes completions as they land, as the
  /// fleet does every tick, keeps neither an unbounded history nor a
  /// growing buffer.
  void TakeCompletions(std::vector<Completion>* out);
  /// \brief The underlying registry (for direct Acquire/Publish).
  ModelRegistry* registry() const { return registry_; }
  /// \brief The validated configuration.
  const ServerConfig& config() const { return config_; }

  /// \brief Per-tenant serving tallies (mode-independent; the fairness
  /// bound and the E37 bench read goodput from these).
  struct TenantStats {
    int64_t offered = 0;
    int64_t admitted = 0;
    int64_t completed = 0;
    int64_t deadline_missed = 0;
    int64_t shed_queue_full = 0;
    int64_t shed_deadline = 0;
    int64_t shed_draining = 0;
    LatencyHistogram latency;  ///< simulated finish - arrival
  };

  /// \brief Tallies per normalized tenant name, in name order.
  const std::map<std::string, TenantStats>& tenant_stats() const {
    return tenants_;
  }

  /// \brief The slot pool (occupancy timeline, per-slot states), or
  /// nullptr when the legacy FIFO path is active.
  const SlotPool* slot_pool() const { return slots_.get(); }

  /// \brief Resolved slot lanes per worker (scheduler.slots_per_worker,
  /// or batch.max_batch when 0).
  int64_t lanes_per_worker() const;

  /// \brief Counters + latency quantiles under "serve.*" keys:
  /// offered/admitted/no_such_model/deadline_missed/batches, structured
  /// shed reasons as "serve.shed.<reason>" (queue_full /
  /// deadline_infeasible / draining), per-model
  /// "serve.<model>.served_v<N>", simulated latency under
  /// "serve.latency.*", real engine wall time under "serve.measured.*",
  /// and per-tenant "serve.tenant.<name>.*" tallies with
  /// "serve.tenant.<name>.latency.*" quantiles.
  MetricsReport metrics() const;

 private:
  /// One dispatched batch awaiting real execution in the current wave.
  struct ExecTask {
    std::shared_ptr<ModelSnapshot> snap;
    int worker = 0;
    int64_t batch_size = 0;
    double dispatch_ms = 0.0;
    double finish_ms = 0.0;
    std::vector<SlotRequest> members;
    double measured_service_ms = 0.0;  ///< stamped by the executing thread
    Status status;                     ///< engine verdict, checked on flush
  };

  Server(ModelRegistry* registry, const ServerConfig& config);

  /// The declared cost model with the current fault scale applied.
  ServiceCostModel ScaledCost() const;

  /// Size of the version-homogeneous FIFO prefix (<= max_batch) and the
  /// simulated time it becomes dispatchable.
  int64_t BatchPrefix(const std::deque<SlotRequest>& queue,
                      double* ready_ms) const;
  /// FIFO mode: earliest simulated time any model queue's front batch can
  /// dispatch (ready and a worker free), or +inf when every queue is
  /// empty; the winning model (map order breaks ties) goes to \p model.
  double FifoNextDispatchMs(std::string* model) const;
  /// FIFO mode: dispatches every due batch, strictly before \p limit_ms
  /// when \p strict, else at or before it. Ends with a FlushWave.
  void DispatchDue(double limit_ms, bool strict);

  /// Slot mode: earliest event after \p now_ms — an in-flight step
  /// completion, or a strictly-future quota refill that could seat a
  /// queued request — or +inf when none is pending.
  double SlotNextEventMs(double now_ms) const;
  /// Slot mode: processes step completions and quota refills in
  /// simulated-time order, strictly before \p limit_ms when \p strict,
  /// else at or before it. Ends with a FlushWave.
  void SlotAdvance(double limit_ms, bool strict);
  /// Slot mode: refills free lanes from the scheduler and starts steps on
  /// idle workers at \p now_ms, until the pool is saturated.
  void SlotRefillAndStart(double now_ms);

  /// Stages \p members (one version-homogeneous batch) onto \p worker's
  /// replica as a task of the pending wave, dispatched at \p dispatch_ms.
  void StageBatch(std::vector<SlotRequest> members, int worker,
                  double dispatch_ms);
  /// Runs the staged wave on the thread pool and records completions.
  void FlushWave();

  ModelRegistry* registry_;
  ServerConfig config_;
  ThreadPool pool_;  ///< workers - 1 threads; chunk 0 runs on the caller

  double clock_ms_ = 0.0;
  int64_t next_id_ = 0;
  bool draining_ = false;
  double cost_scale_ = 1.0;
  std::map<std::string, std::deque<SlotRequest>> queues_;  ///< FIFO mode
  std::vector<double> worker_free_ms_;
  std::vector<ExecTask> wave_;

  // Slot mode (config_.scheduler.use_slots): the tenant scheduler holds
  // queued requests, the pool tracks lane states, loaded_[w] holds the
  // requests bound to worker w's loaded lanes in load order.
  std::unique_ptr<TenantScheduler> scheduler_;
  std::unique_ptr<SlotPool> slots_;
  std::vector<std::vector<SlotRequest>> loaded_;

  std::vector<Completion> completions_;
  LatencyHistogram measured_;
  int64_t dropped_queued_ = 0;
  int64_t no_such_model_ = 0;
  int64_t batches_ = 0;
  /// served request count per (model, version)
  std::map<std::string, std::map<int64_t, int64_t>> served_;
  /// per-tenant tallies, mode-independent (name order); the server-wide
  /// offered/admitted/shed/deadline_missed counts are their sums
  std::map<std::string, TenantStats> tenants_;
};

}  // namespace dlsys

#endif  // DLSYS_SERVE_SERVER_H_
