#include "src/serve/server.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "src/obs/counters.h"
#include "src/obs/trace.h"

namespace dlsys {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<std::unique_ptr<Server>> Server::Create(ModelRegistry* registry,
                                               const ServerConfig& config) {
  if (registry == nullptr) {
    return Status::InvalidArgument("registry must be non-null");
  }
  DLSYS_RETURN_NOT_OK(ValidateServerConfig(config));
  return std::unique_ptr<Server>(new Server(registry, config));
}

Server::Server(ModelRegistry* registry, const ServerConfig& config)
    : registry_(registry),
      config_(config),
      pool_(config.workers - 1),
      worker_free_ms_(static_cast<size_t>(config.workers), 0.0) {
  if (config_.scheduler.use_slots) {
    scheduler_ = std::make_unique<TenantScheduler>(config_.scheduler);
    slots_ = std::make_unique<SlotPool>(
        config_.workers, static_cast<int>(lanes_per_worker()));
    loaded_.resize(static_cast<size_t>(config_.workers));
  }
}

int64_t Server::lanes_per_worker() const {
  return config_.scheduler.slots_per_worker > 0
             ? config_.scheduler.slots_per_worker
             : config_.batch.max_batch;
}

Result<int64_t> Server::Publish(const std::string& model,
                                const Sequential& net,
                                const Shape& example_shape,
                                const EngineConfig& engine_config) {
  EngineConfig ec = engine_config;
  // In slot mode a step batches every loaded lane, so staging must fit a
  // full lane complement as well as the legacy batch ceiling.
  const int64_t floor = config_.scheduler.use_slots
                            ? std::max(config_.batch.max_batch,
                                       lanes_per_worker())
                            : config_.batch.max_batch;
  if (ec.max_batch < floor) {
    ec.max_batch = floor;
  }
  auto snap = CompileSnapshot(net, example_shape, config_.workers, ec);
  if (!snap.ok()) return snap.status();
  return registry_->Publish(model, std::move(snap).value());
}

int64_t Server::BatchPrefix(const std::deque<SlotRequest>& queue,
                            double* ready_ms) const {
  const int64_t mb = config_.batch.max_batch;
  const ModelSnapshot* snap = queue.front().snap.get();
  int64_t n = 0;
  while (n < static_cast<int64_t>(queue.size()) && n < mb &&
         queue[n].snap.get() == snap) {
    ++n;
  }
  // A batch closes when it fills, or when a different-version request
  // arrives behind it (it can never grow past that point), or when the
  // oldest member's delay budget expires — whichever is earliest.
  double closed_ms = kInf;
  if (n == mb) {
    closed_ms = queue[n - 1].arrival_ms;
  } else if (n < static_cast<int64_t>(queue.size())) {
    closed_ms = queue[n].arrival_ms;
  }
  *ready_ms =
      std::min(closed_ms, queue.front().arrival_ms + config_.batch.max_delay_ms);
  return n;
}

Server::SubmitResult Server::Submit(const std::string& model,
                                    const Tensor& example, double arrival_ms,
                                    double deadline_budget_ms,
                                    const std::string& tenant,
                                    const obs::RequestTrace* rtrace) {
  DLSYS_CHECK(arrival_ms >= clock_ms_, "Submit arrivals must be monotone");
  const bool slot_mode = scheduler_ != nullptr;
  // Work due strictly before this arrival happens first; a batch delay or
  // step completion landing exactly at arrival_ms instead waits for the
  // non-strict pass below, so it can coalesce (or seat) this request. On
  // the FIFO path that pass dispatches the expiring batch together with
  // this request, so a later arrival at the same tick opens a new batch:
  // with max_delay_ms == 0 and an idle worker, same-tick arrivals each
  // dispatch alone.
  if (slot_mode) {
    SlotAdvance(arrival_ms, /*strict=*/true);
  } else {
    DispatchDue(arrival_ms, /*strict=*/true);
  }
  clock_ms_ = arrival_ms;

  const std::string tenant_name =
      tenant.empty() ? std::string("default") : tenant;
  TenantStats& ts = tenants_[tenant_name];

  SubmitResult result;
  result.id = next_id_++;
  // All sim-track events of this request key on the fleet rid when the
  // caller threads one through, so the exported trace stitches router-
  // and replica-side spans of one request under one id.
  const int64_t trace_rid =
      rtrace != nullptr && rtrace->rid >= 0 ? rtrace->rid : -1;
  const int64_t erid = trace_rid >= 0 ? trace_rid : result.id;
  ++ts.offered;
  DLSYS_COUNTER_ADD("serve.offered", 1);

  std::shared_ptr<ModelSnapshot> snap = registry_->Acquire(model);
  if (snap == nullptr) {
    ++no_such_model_;
    DLSYS_COUNTER_ADD("serve.no_such_model", 1);
    result.outcome = Outcome::kNoSuchModel;
    return result;
  }
  DLSYS_CHECK(static_cast<int>(snap->replicas.size()) >= config_.workers,
              "snapshot has fewer replicas than serving workers");
  DLSYS_CHECK(snap->engine_config.max_batch >= config_.batch.max_batch,
              "snapshot engine batch ceiling below the server batch policy");
  if (slot_mode) {
    DLSYS_CHECK(snap->engine_config.max_batch >= lanes_per_worker(),
                "snapshot engine batch ceiling below the slot lane count");
  }
  DLSYS_CHECK(example.size() == snap->in_elems,
              "example does not match the model's per-example input shape");
  result.version = snap->version;

  const double budget = deadline_budget_ms > 0.0 ? deadline_budget_ms
                                                 : config_.default_deadline_ms;
  const ServiceCostModel scaled_cost = ScaledCost();

  AdmissionInputs in;
  in.arrival_ms = arrival_ms;
  in.deadline_budget_ms = budget;
  in.draining = draining_;
  if (slot_mode) {
    // Slot-mode prediction: the backlog is everything queued or loaded;
    // the request can start no earlier than its tenant's quota opens, and
    // no earlier than the backlog clears at the pool's steady drain rate
    // (workers * lanes requests per full step). Like the legacy branch
    // the prediction is biased optimistic, so sheds under-trigger.
    const int64_t lanes = lanes_per_worker();
    const int64_t backlog = scheduler_->depth() + slots_->TotalLoaded();
    in.queue_depth = backlog;
    in.prospective_batch = std::min<int64_t>(lanes, backlog + 1);
    in.batch_ready_ms = std::max(
        arrival_ms, scheduler_->QuotaBacklogMs(tenant_name, arrival_ms));
    const double step_ms = EstimateServiceMs(scaled_cost, lanes);
    const double backlog_ms =
        step_ms > 0.0 ? static_cast<double>(backlog) * step_ms /
                            (static_cast<double>(config_.workers) *
                             static_cast<double>(lanes))
                      : 0.0;
    const double free =
        *std::min_element(worker_free_ms_.begin(), worker_free_ms_.end());
    in.earliest_worker_free_ms = std::max(free, arrival_ms) + backlog_ms;
  } else {
    const int64_t mb = config_.batch.max_batch;
    // Predict this request's batch from the queue's FIFO grouping: it
    // joins the trailing group when that group shares its snapshot and
    // has room, otherwise it opens a new group behind everything queued.
    auto qit = queues_.find(model);
    const int64_t depth =
        qit == queues_.end() ? 0 : static_cast<int64_t>(qit->second.size());
    std::vector<int64_t> ahead_sizes;
    int64_t tail_size = 0;
    double tail_front_arrival = 0.0;
    const ModelSnapshot* tail_snap = nullptr;
    for (int64_t i = 0; i < depth;) {
      const std::deque<SlotRequest>& q = qit->second;
      const ModelSnapshot* gs = q[i].snap.get();
      int64_t n = 0;
      while (i + n < depth && n < mb && q[i + n].snap.get() == gs) ++n;
      if (i + n == depth) {
        tail_size = n;
        tail_front_arrival = q[i].arrival_ms;
        tail_snap = gs;
      } else {
        ahead_sizes.push_back(n);
      }
      i += n;
    }
    const bool joins_tail = tail_snap == snap.get() && tail_size < mb;
    if (!joins_tail && tail_size > 0) ahead_sizes.push_back(tail_size);

    in.queue_depth = depth;
    in.prospective_batch = joins_tail ? tail_size + 1 : 1;
    if (in.prospective_batch == mb) {
      in.batch_ready_ms = arrival_ms;  // this request completes the batch
    } else if (joins_tail) {
      in.batch_ready_ms = std::max(
          arrival_ms, tail_front_arrival + config_.batch.max_delay_ms);
    } else {
      in.batch_ready_ms = arrival_ms + config_.batch.max_delay_ms;
    }
    // Predicted worker availability: replay the queued-ahead groups onto
    // the earliest-free worker under the cost model. Their own ready times
    // are ignored (assumed dispatchable at this arrival), which biases the
    // prediction optimistic — sheds under-, never over-trigger from it.
    std::vector<double> free = worker_free_ms_;
    for (int64_t g : ahead_sizes) {
      auto w = std::min_element(free.begin(), free.end());
      *w = std::max(*w, arrival_ms) + EstimateServiceMs(scaled_cost, g);
    }
    in.earliest_worker_free_ms = *std::min_element(free.begin(), free.end());
  }

  switch (DecideAdmission(config_.queue_capacity, scaled_cost, in)) {
    case AdmissionDecision::kShedQueueFull:
      ++ts.shed_queue_full;
      DLSYS_COUNTER_ADD("serve.shed.queue_full", 1);
      DLSYS_TRACE_INSTANT_SIM("serve.shed.queue_full", "serve", arrival_ms,
                              erid);
      result.outcome = Outcome::kShedQueueFull;
      return result;
    case AdmissionDecision::kShedDeadline:
      ++ts.shed_deadline;
      DLSYS_COUNTER_ADD("serve.shed.deadline_infeasible", 1);
      DLSYS_TRACE_INSTANT_SIM("serve.shed.deadline_infeasible", "serve",
                              arrival_ms, erid);
      result.outcome = Outcome::kShedDeadline;
      return result;
    case AdmissionDecision::kShedDraining:
      ++ts.shed_draining;
      DLSYS_COUNTER_ADD("serve.shed.draining", 1);
      DLSYS_TRACE_INSTANT_SIM("serve.shed.draining", "serve", arrival_ms,
                              erid);
      result.outcome = Outcome::kShedDraining;
      return result;
    case AdmissionDecision::kAdmit:
      break;
  }

  ++ts.admitted;
  DLSYS_COUNTER_ADD("serve.admitted", 1);
  DLSYS_TRACE_INSTANT_SIM("serve.admit", "serve", arrival_ms, erid);

  SlotRequest req;
  req.id = result.id;
  req.trace_rid = trace_rid;
  req.tenant = tenant_name;
  req.arrival_ms = arrival_ms;
  // Slot mode's Enqueue restamps this with the tenant's quota horizon;
  // the FIFO path has no quota gate, so its whole queue wait is slot
  // (batch) wait in the decomposition.
  req.quota_open_ms = arrival_ms;
  req.deadline_ms = arrival_ms + budget;
  req.input.assign(example.data(), example.data() + snap->in_elems);
  req.snap = std::move(snap);
  if (slot_mode) {
    req.priority = scheduler_->PolicyFor(tenant_name).priority;
    scheduler_->Enqueue(std::move(req));
    // Seat the request immediately if a lane is free (or frees exactly
    // now), and let idle workers depart with whatever is loaded.
    SlotAdvance(arrival_ms, /*strict=*/false);
  } else {
    queues_[model].push_back(std::move(req));
    // Now dispatch anything due *at* arrival_ms too — a full batch formed
    // by this request, or a delay expiring on this exact tick.
    DispatchDue(arrival_ms, /*strict=*/false);
  }
  result.outcome = Outcome::kAdmitted;
  return result;
}

ServiceCostModel Server::ScaledCost() const {
  ServiceCostModel cost = config_.cost;
  cost.fixed_ms *= cost_scale_;
  cost.per_example_ms *= cost_scale_;
  return cost;
}

int64_t Server::DropQueued() {
  int64_t dropped = 0;
  if (scheduler_ != nullptr) {
    dropped += scheduler_->DropAll();
    dropped += slots_->DropLoaded(clock_ms_);
    for (std::vector<SlotRequest>& lane : loaded_) lane.clear();
  }
  for (auto& [name, queue] : queues_) {
    dropped += static_cast<int64_t>(queue.size());
    queue.clear();
  }
  dropped_queued_ += dropped;
  if (dropped > 0) {
    DLSYS_COUNTER_ADD("serve.dropped_queued", dropped);
    DLSYS_TRACE_INSTANT_SIM("serve.drop_queued", "serve", clock_ms_, -1);
  }
  return dropped;
}

int64_t Server::queue_depth() const {
  int64_t depth = 0;
  if (scheduler_ != nullptr) {
    depth += scheduler_->depth() + slots_->TotalLoaded();
  }
  for (const auto& [name, queue] : queues_) {
    depth += static_cast<int64_t>(queue.size());
  }
  return depth;
}

double Server::earliest_worker_free_ms() const {
  const double free =
      *std::min_element(worker_free_ms_.begin(), worker_free_ms_.end());
  return std::max(free, clock_ms_);
}

void Server::AdvanceTo(double now_ms) {
  DLSYS_CHECK(now_ms >= clock_ms_, "AdvanceTo must be monotone");
  if (scheduler_ != nullptr) {
    SlotAdvance(now_ms, /*strict=*/false);
  } else {
    DispatchDue(now_ms, /*strict=*/false);
  }
  clock_ms_ = now_ms;
}

double Server::NextActionableMs() const {
  std::string model;
  const double t = scheduler_ != nullptr ? SlotNextEventMs(clock_ms_)
                                         : FifoNextDispatchMs(&model);
  return t == kInf ? -1.0 : t;
}

void Server::Drain() {
  while (true) {
    const double next = NextActionableMs();
    if (next < 0.0) break;
    AdvanceTo(std::max(clock_ms_, next));
  }
}

double Server::FifoNextDispatchMs(std::string* model) const {
  const double free =
      *std::min_element(worker_free_ms_.begin(), worker_free_ms_.end());
  double best = kInf;
  for (const auto& [name, queue] : queues_) {
    if (queue.empty()) continue;
    double ready = 0.0;
    BatchPrefix(queue, &ready);
    const double t = std::max(ready, free);
    if (t < best) {  // map order breaks ties by model name
      best = t;
      *model = name;
    }
  }
  return best;
}

void Server::DispatchDue(double limit_ms, bool strict) {
  std::string model;
  while (true) {
    const double t = FifoNextDispatchMs(&model);
    if (t == kInf || (strict ? t >= limit_ms : t > limit_ms)) break;
    std::deque<SlotRequest>& queue = queues_[model];
    double ready = 0.0;
    const auto n = static_cast<std::ptrdiff_t>(BatchPrefix(queue, &ready));
    // Lowest-index earliest-free worker, so assignment is deterministic.
    const int worker = static_cast<int>(
        std::min_element(worker_free_ms_.begin(), worker_free_ms_.end()) -
        worker_free_ms_.begin());
    std::vector<SlotRequest> members(
        std::make_move_iterator(queue.begin()),
        std::make_move_iterator(queue.begin() + n));
    queue.erase(queue.begin(), queue.begin() + n);
    StageBatch(std::move(members), worker, t);
  }
  FlushWave();
}

double Server::SlotNextEventMs(double now_ms) const {
  // In-flight steps complete at their modeled finish times; each
  // completion frees lanes and may start the worker's next step.
  double next = kInf;
  bool any_free_lane = false;
  for (int w = 0; w < config_.workers; ++w) {
    if (slots_->ExecutingCount(w) > 0) {
      next = std::min(next, worker_free_ms_[w]);
    }
    if (slots_->FreeLanes(w) > 0) any_free_lane = true;
  }
  // A quota refill strictly in the future can unblock a queued request.
  // Anything eligible *now* is already seated (SlotAdvance leaves the
  // pool saturated), so a refill at or before now_ms is not an event;
  // and if free lanes exist only behind a version-homogeneity
  // constraint, the constraining worker is necessarily executing, so a
  // completion event already covers progress.
  if (scheduler_->depth() > 0 && any_free_lane) {
    const double q = scheduler_->NextEligibleMs(now_ms);
    if (q > now_ms) next = std::min(next, q);
  }
  return next;
}

void Server::SlotAdvance(double limit_ms, bool strict) {
  // Seat anything already eligible at the current clock (usually a no-op:
  // every public mutation leaves the pool saturated).
  double cursor = clock_ms_;
  SlotRefillAndStart(cursor);
  while (true) {
    const double next = SlotNextEventMs(cursor);
    if (next == kInf || (strict ? next >= limit_ms : next > limit_ms)) break;
    cursor = std::max(cursor, next);
    // Complete every step due at the event time; freed lanes refill from
    // the scheduler at once and idle workers depart immediately — no
    // drain barrier between steps.
    for (int w = 0; w < config_.workers; ++w) {
      if (slots_->ExecutingCount(w) > 0 && worker_free_ms_[w] <= cursor) {
        slots_->CompleteStep(w, cursor);
      }
    }
    SlotRefillAndStart(cursor);
  }
  FlushWave();
}

void Server::SlotRefillAndStart(double now_ms) {
  while (true) {
    int placed = 0;
    // Fill workers in service order — the worker whose next step departs
    // soonest first, lowest index on ties — so a request the scheduler
    // releases lands where it completes earliest.
    std::vector<int> order(static_cast<size_t>(config_.workers));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return std::max(worker_free_ms_[a], now_ms) <
             std::max(worker_free_ms_[b], now_ms);
    });
    for (int w : order) {
      std::vector<SlotRequest>& lanes = loaded_[static_cast<size_t>(w)];
      while (slots_->FreeLanes(w) > 0) {
        // A worker's pending lanes stay version-homogeneous: once a lane
        // is loaded, further loads must match its snapshot. An empty
        // worker accepts anything.
        TenantScheduler::SnapFilter filter;
        if (!lanes.empty()) {
          const ModelSnapshot* pending = lanes.front().snap.get();
          filter = [pending](const ModelSnapshot* s) { return s == pending; };
        }
        std::optional<SlotRequest> pick = scheduler_->PickNext(now_ms, filter);
        if (!pick.has_value()) break;
        pick->slot = slots_->Load(w, pick->id, now_ms);
        lanes.push_back(std::move(*pick));
        ++placed;
      }
    }
    int started = 0;
    for (int w = 0; w < config_.workers; ++w) {
      std::vector<SlotRequest>& lanes = loaded_[static_cast<size_t>(w)];
      if (slots_->ExecutingCount(w) == 0 && !lanes.empty()) {
        const int n = slots_->BeginStep(w, now_ms);
        DLSYS_CHECK(n == static_cast<int>(lanes.size()),
                    "loaded payloads out of sync with loaded lanes");
        StageBatch(std::exchange(lanes, {}), w, now_ms);
        ++started;
      }
    }
    // A departed step clears its worker's version constraint, which can
    // unlock further loads — loop until the pool is saturated.
    if (placed == 0 && started == 0) break;
  }
}

void Server::StageBatch(std::vector<SlotRequest> members, int worker,
                        double dispatch_ms) {
  const ModelSnapshot* snap = members.front().snap.get();
  // A replica's staging buffers hold exactly one batch; if this (snapshot,
  // worker) pair is already staged in the pending wave, execute the wave
  // before overwriting them.
  for (const ExecTask& t : wave_) {
    if (t.snap.get() == snap && t.worker == worker) {
      FlushWave();
      break;
    }
  }

  ExecTask task;
  task.snap = members.front().snap;
  task.worker = worker;
  task.batch_size = static_cast<int64_t>(members.size());
  task.dispatch_ms = dispatch_ms;
  task.finish_ms = dispatch_ms + EstimateServiceMs(ScaledCost(),
                                                   task.batch_size);
  const int64_t in_elems = task.snap->in_elems;
  float* staging = task.snap->replicas[worker].in_staging.data();
  for (size_t j = 0; j < members.size(); ++j) {
    std::copy(members[j].input.begin(), members[j].input.end(),
              staging + static_cast<int64_t>(j) * in_elems);
  }
  task.members = std::move(members);
  worker_free_ms_[worker] = task.finish_ms;
  ++batches_;
  DLSYS_COUNTER_ADD("serve.batches", 1);
  wave_.push_back(std::move(task));
}

void Server::FlushWave() {
  if (wave_.empty()) return;
  const int64_t n = static_cast<int64_t>(wave_.size());
  const int64_t chunks =
      std::min<int64_t>(n, static_cast<int64_t>(pool_.num_workers()) + 1);
  // Simulated-concurrent batches really run concurrently: each task owns
  // its (snapshot, worker) replica exclusively, so tasks share no engine
  // workspace. Bodies touch only their own task — completions_ and the
  // histograms are coordinator-side state, written after the join.
  pool_.RunParallel(
      [this](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          ExecTask& t = wave_[i];
          ModelSnapshot::Replica& rep = t.snap->replicas[t.worker];
          Stopwatch sw;
          t.status = rep.engine->PredictInto(rep.in_staging.data(),
                                             t.batch_size,
                                             rep.out_staging.data());
          t.measured_service_ms = sw.Seconds() * 1000.0;
        }
      },
      0, n, chunks);

  for (ExecTask& task : wave_) {
    DLSYS_CHECK(task.status.ok(), "engine rejected a dispatched batch");
    const ModelSnapshot::Replica& rep = task.snap->replicas[task.worker];
    measured_.Record(task.measured_service_ms);
    DLSYS_HISTOGRAM_RECORD("serve.measured_service_ms",
                           task.measured_service_ms);
    for (size_t j = 0; j < task.members.size(); ++j) {
      const SlotRequest& entry = task.members[j];
      Completion c;
      c.id = entry.id;
      c.rid = entry.trace_rid >= 0 ? entry.trace_rid : entry.id;
      c.model = task.snap->model;
      c.tenant = entry.tenant;
      c.version = task.snap->version;
      c.arrival_ms = entry.arrival_ms;
      // The quota horizon was a prediction at enqueue time; DWFQ rotation
      // can serve before or after it, so clamp it into the realized
      // [arrival, dispatch] interval the decomposition splits.
      c.quota_open_ms = std::max(
          entry.arrival_ms, std::min(entry.quota_open_ms, task.dispatch_ms));
      c.dispatch_ms = task.dispatch_ms;
      c.finish_ms = task.finish_ms;
      c.deadline_ms = entry.deadline_ms;
      c.batch_size = task.batch_size;
      c.worker = task.worker;
      c.slot = entry.slot;
      c.deadline_missed = task.finish_ms > entry.deadline_ms;
      c.measured_service_ms = task.measured_service_ms;
      c.output = Tensor(task.snap->example_output_shape);
      const float* row =
          rep.out_staging.data() + static_cast<int64_t>(j) * task.snap->out_elems;
      std::copy(row, row + task.snap->out_elems, c.output.data());
      const double latency = c.finish_ms - c.arrival_ms;
      TenantStats& ts = tenants_[c.tenant];
      ++ts.completed;
      if (c.deadline_missed) {
        ++ts.deadline_missed;
        DLSYS_COUNTER_ADD("serve.deadline_missed", 1);
      }
      ts.latency.Record(latency);
      DLSYS_HISTOGRAM_RECORD("serve.latency_ms", latency);
      DLSYS_COUNTER_ADD("serve.completed", 1);
      // The request's whole life on the simulated-clock track, keyed by
      // rid: a queue umbrella (admission -> dispatch) with quota-wait and
      // slot-wait children splitting it at the quota horizon, the execute
      // span, then an instant respond marker. Span boundaries are emitted
      // in the decomposer's integer sim-ns quantization, so each span's
      // rendered duration equals its critical-path component bitwise, and
      // span/parent ids chain them under the fleet's root request span
      // (parentless when serving standalone). Together with the admit
      // instant from Submit, the exported Chrome trace reconstructs the
      // full admit -> quota -> slot -> execute -> respond path of any
      // single request.
#if DLSYS_OBS
      const int64_t arrival_ns = obs::SimNs(c.arrival_ms);
      const int64_t quota_open_ns = obs::SimNs(c.quota_open_ms);
      const int64_t dispatch_ns = obs::SimNs(c.dispatch_ms);
      const int64_t finish_ns = obs::SimNs(c.finish_ms);
      const int64_t root =
          entry.trace_rid >= 0 ? obs::RequestSpanId(c.rid) : -1;
      const int64_t queue_span = obs::QueueSpanId(c.rid);
      DLSYS_TRACE_EMIT_SIM_NS("serve.queue", "serve", arrival_ns,
                              dispatch_ns - arrival_ns, c.rid, queue_span,
                              root);
      DLSYS_TRACE_EMIT_SIM_NS(
          "serve.quota_wait", "serve", arrival_ns, quota_open_ns - arrival_ns,
          c.rid,
          obs::ComponentSpanId(c.rid, obs::PathComponent::kQuotaDelay),
          queue_span);
      DLSYS_TRACE_EMIT_SIM_NS(
          "serve.slot_wait", "serve", quota_open_ns,
          dispatch_ns - quota_open_ns, c.rid,
          obs::ComponentSpanId(c.rid, obs::PathComponent::kSlotWait),
          queue_span);
      DLSYS_TRACE_EMIT_SIM_NS(
          "serve.execute", "serve", dispatch_ns, finish_ns - dispatch_ns,
          c.rid, obs::ComponentSpanId(c.rid, obs::PathComponent::kExecute),
          root);
      DLSYS_TRACE_INSTANT_SIM("serve.respond", "serve", c.finish_ms, c.rid);
#endif
      ++served_[c.model][c.version];
      completions_.push_back(std::move(c));
    }
  }
  wave_.clear();
}

void Server::TakeCompletions(std::vector<Completion>* out) {
  out->clear();
  out->swap(completions_);
}

MetricsReport Server::metrics() const {
  MetricsReport report;
  TenantStats total;
  for (const auto& [name, ts] : tenants_) {
    total.offered += ts.offered;
    total.admitted += ts.admitted;
    total.deadline_missed += ts.deadline_missed;
    total.shed_queue_full += ts.shed_queue_full;
    total.shed_deadline += ts.shed_deadline;
    total.shed_draining += ts.shed_draining;
    total.latency.Merge(ts.latency);
    const std::string prefix = "serve.tenant." + name;
    report.Set(prefix + ".offered", static_cast<double>(ts.offered));
    report.Set(prefix + ".admitted", static_cast<double>(ts.admitted));
    report.Set(prefix + ".completed", static_cast<double>(ts.completed));
    report.Set(prefix + ".deadline_missed",
               static_cast<double>(ts.deadline_missed));
    report.Set(prefix + ".shed.queue_full",
               static_cast<double>(ts.shed_queue_full));
    report.Set(prefix + ".shed.deadline_infeasible",
               static_cast<double>(ts.shed_deadline));
    report.Set(prefix + ".shed.draining",
               static_cast<double>(ts.shed_draining));
    ts.latency.ReportInto(&report, prefix + ".latency");
  }
  report.Set("serve.offered", static_cast<double>(total.offered));
  report.Set("serve.admitted", static_cast<double>(total.admitted));
  report.Set("serve.shed.queue_full",
             static_cast<double>(total.shed_queue_full));
  report.Set("serve.shed.deadline_infeasible",
             static_cast<double>(total.shed_deadline));
  report.Set("serve.shed.draining", static_cast<double>(total.shed_draining));
  report.Set("serve.dropped_queued", static_cast<double>(dropped_queued_));
  report.Set("serve.no_such_model", static_cast<double>(no_such_model_));
  report.Set("serve.deadline_missed",
             static_cast<double>(total.deadline_missed));
  report.Set("serve.batches", static_cast<double>(batches_));
  report.Set("serve.swaps", static_cast<double>(registry_->swap_count()));
  for (const auto& [model, by_version] : served_) {
    for (const auto& [version, count] : by_version) {
      report.Set("serve." + model + ".served_v" + std::to_string(version),
                 static_cast<double>(count));
    }
  }
  total.latency.ReportInto(&report, "serve.latency");
  measured_.ReportInto(&report, "serve.measured");
  return report;
}

}  // namespace dlsys
