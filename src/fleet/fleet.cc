#include "src/fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <deque>
#include <utility>

#include "src/core/rng.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor.h"

namespace dlsys {

namespace {

/// How long past the end of the load window the driver keeps ticking to
/// let in-flight work land before force-draining. Simulated ms.
constexpr double kTailLimitMs = 60'000.0;

/// p-th percentile of \p values (sorted in place). 0 when empty.
double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t idx = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (idx > 0) --idx;
  if (idx >= n) idx = n - 1;
  return (*values)[idx];
}

/// Fleet-side record of one admitted, not-yet-delivered request.
struct PendingReq {
  double client_t_ms = 0.0;
  double client_deadline_ms = 0.0;  ///< absolute end-to-end deadline
  double return_hop_ms = 0.0;
  FleetReport::TenantRow* tenant = nullptr;  ///< null when untenanted
  bool live = false;
};

/// A replica's pending requests keyed by server id. A server hands out
/// ids one by one in Submit order, so the table is a window of slots
/// [base, base + size) that grows at the back as requests are admitted
/// and shrinks at the front as the oldest are delivered. Ids the window
/// does not hold live (shed requests, or completions of work that died
/// in a crash) look up as null.
class PendingTable {
 public:
  bool empty() const { return live_ == 0; }
  int64_t size() const { return live_; }

  void Insert(int64_t id, const PendingReq& req) {
    if (slots_.empty()) base_ = id;
    DLSYS_CHECK(id - base_ >= static_cast<int64_t>(slots_.size()),
                "pending ids must be admitted in increasing order");
    slots_.resize(static_cast<size_t>(id - base_ + 1));
    PendingReq& slot = slots_[static_cast<size_t>(id - base_)];
    slot = req;
    slot.live = true;
    ++live_;
  }

  /// The live request with server id \p id, or null.
  PendingReq* Find(int64_t id) {
    if (id < base_ || id >= base_ + static_cast<int64_t>(slots_.size())) {
      return nullptr;
    }
    PendingReq& slot = slots_[static_cast<size_t>(id - base_)];
    return slot.live ? &slot : nullptr;
  }

  /// Retires \p req, a live entry Find returned.
  void Erase(PendingReq* req) {
    req->live = false;
    --live_;
    while (!slots_.empty() && !slots_.front().live) {
      slots_.pop_front();
      ++base_;
    }
  }

  /// Calls \p fn on every live entry, then empties the table.
  template <typename Fn>
  void Clear(Fn fn) {
    for (const PendingReq& req : slots_) {
      if (req.live) fn(req);
    }
    slots_.clear();
    live_ = 0;
  }

 private:
  std::deque<PendingReq> slots_;
  int64_t base_ = 0;  ///< server id of slots_.front()
  int64_t live_ = 0;
};

void AppendI(std::string* out, const char* key, int64_t v, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %lld%s", key,
                static_cast<long long>(v), comma ? ", " : "");
  *out += buf;
}

void AppendD(std::string* out, const char* key, double v, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f%s", key, v,
                comma ? ", " : "");
  *out += buf;
}

}  // namespace

const char* FleetRecoveryName(FleetRecovery recovery) {
  switch (recovery) {
    case FleetRecovery::kCheckpointedRestart:
      return "checkpointed_restart";
    case FleetRecovery::kColdReplace:
      return "cold_replace";
  }
  return "unknown";
}

Status ValidateFleetConfig(const FleetConfig& config) {
  if (config.replica_slots < 1) {
    return Status::InvalidArgument("replica_slots must be >= 1");
  }
  if (config.initial_replicas < 1 ||
      config.initial_replicas > config.replica_slots) {
    return Status::InvalidArgument(
        "need 1 <= initial_replicas <= replica_slots");
  }
  Status server = ValidateServerConfig(config.server);
  if (!server.ok()) return server;
  Status health = ValidateHealthCheckConfig(config.health);
  if (!health.ok()) return health;
  Status scale = ValidateAutoscalerConfig(config.autoscale);
  if (!scale.ok()) return scale;
  if (config.autoscale.min_replicas > config.replica_slots) {
    return Status::InvalidArgument(
        "autoscale.min_replicas exceeds replica_slots");
  }
  if (config.request_bytes < 0 || config.response_bytes < 0) {
    return Status::InvalidArgument("request/response bytes must be >= 0");
  }
  if (!(config.restart_ms >= 0.0) || !(config.replace_ms >= 0.0)) {
    return Status::InvalidArgument("restart_ms/replace_ms must be >= 0");
  }
  if (!(config.canary.bake_ms > 0.0)) {
    return Status::InvalidArgument("canary.bake_ms must be positive");
  }
  if (!(config.canary.max_degraded_fraction >= 0.0) ||
      !(config.canary.max_degraded_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "canary.max_degraded_fraction must be in [0, 1]");
  }
  if (!(config.canary.max_p99_regression >= 0.0)) {
    return Status::InvalidArgument(
        "canary.max_p99_regression must be >= 0 (0 disables)");
  }
  if (config.canary.min_p99_samples < 1) {
    return Status::InvalidArgument("canary.min_p99_samples must be >= 1");
  }
  if (!(config.tick_ms > 0.0)) {
    return Status::InvalidArgument("tick_ms must be positive");
  }
  if (!(config.window_ms >= config.tick_ms)) {
    return Status::InvalidArgument("window_ms must be >= tick_ms");
  }
  if (config.recover_streak < 1) {
    return Status::InvalidArgument("recover_streak must be >= 1");
  }
  if (!(config.attribution.window_ms > 0.0)) {
    return Status::InvalidArgument("attribution.window_ms must be positive");
  }
  if (config.attribution.exemplars_per_window < 0) {
    return Status::InvalidArgument(
        "attribution.exemplars_per_window must be >= 0");
  }
  if (!(config.slo.slo_target > 0.0) || !(config.slo.slo_target < 1.0)) {
    return Status::InvalidArgument("slo.slo_target must be in (0, 1)");
  }
  if (!(config.slo.window_ms > 0.0)) {
    return Status::InvalidArgument("slo.window_ms must be positive");
  }
  if (config.slo.fast_windows < 1 ||
      config.slo.slow_windows < config.slo.fast_windows) {
    return Status::InvalidArgument(
        "need 1 <= slo.fast_windows <= slo.slow_windows");
  }
  if (!(config.slo.fast_burn_threshold > 0.0) ||
      !(config.slo.slow_burn_threshold > 0.0)) {
    return Status::InvalidArgument("slo burn thresholds must be positive");
  }
  if (config.slo.min_requests < 0) {
    return Status::InvalidArgument("slo.min_requests must be >= 0");
  }
  return Status::OK();
}

double FleetReport::goodput_rps() const {
  return duration_ms > 0.0 ? static_cast<double>(completed_ok) /
                                 (duration_ms / 1000.0)
                           : 0.0;
}

double FleetReport::miss_fraction() const {
  return offered > 0
             ? static_cast<double>(missed) / static_cast<double>(offered)
             : 0.0;
}

double FleetReport::shed_fraction() const {
  const int64_t shed =
      shed_queue_full + shed_deadline + shed_draining + shed_unhealthy;
  return offered > 0
             ? static_cast<double>(shed) / static_cast<double>(offered)
             : 0.0;
}

std::string FleetReportJson(const FleetReport& report) {
  std::string out = "{";
  out += "\"scenario\": \"" + report.scenario + "\", ";
  AppendI(&out, "offered", report.offered);
  AppendI(&out, "admitted", report.admitted);
  AppendI(&out, "completed_ok", report.completed_ok);
  AppendI(&out, "missed", report.missed);
  AppendI(&out, "shed_queue_full", report.shed_queue_full);
  AppendI(&out, "shed_deadline", report.shed_deadline);
  AppendI(&out, "shed_draining", report.shed_draining);
  AppendI(&out, "shed_unhealthy", report.shed_unhealthy);
  AppendI(&out, "failed_dead_replica", report.failed_dead_replica);
  AppendI(&out, "dropped_queued", report.dropped_queued);
  AppendI(&out, "crashes", report.crashes);
  AppendI(&out, "restarts", report.restarts);
  AppendI(&out, "rollouts", report.rollouts);
  AppendI(&out, "rollbacks", report.rollbacks);
  AppendI(&out, "p99_rollbacks", report.p99_rollbacks);
  AppendI(&out, "scale_ups", report.scale_ups);
  AppendI(&out, "scale_downs", report.scale_downs);
  AppendD(&out, "p99_ms", report.p99_ms);
  AppendD(&out, "duration_ms", report.duration_ms);
  AppendD(&out, "goodput_rps", report.goodput_rps());
  AppendD(&out, "miss_fraction", report.miss_fraction());
  AppendD(&out, "shed_fraction", report.shed_fraction());
  AppendD(&out, "steady_goodput_rps", report.steady_goodput_rps);
  AppendD(&out, "fault_start_ms", report.fault_start_ms);
  AppendD(&out, "time_to_recover_ms", report.time_to_recover_ms);
  out += "\"tenants\": {";
  {
    bool first = true;
    for (const auto& [name, row] : report.tenants) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {";
      AppendI(&out, "offered", row.offered);
      AppendI(&out, "admitted", row.admitted);
      AppendI(&out, "completed_ok", row.completed_ok);
      AppendI(&out, "missed", row.missed);
      AppendI(&out, "shed", row.shed, /*comma=*/false);
      out += "}";
    }
  }
  out += "}, ";
  out += "\"alerts\": " + obs::BurnAlertsJson(report.alerts) + ", ";
  out += "\"windows\": [";
  for (size_t i = 0; i < report.windows.size(); ++i) {
    const FleetWindow& w = report.windows[i];
    if (i != 0) out += ", ";
    out += "{";
    AppendD(&out, "start_ms", w.start_ms);
    AppendI(&out, "offered", w.offered);
    AppendI(&out, "completed_ok", w.completed_ok);
    AppendI(&out, "missed", w.missed);
    AppendI(&out, "shed", w.shed);
    AppendD(&out, "p99_ms", w.p99_ms);
    AppendD(&out, "goodput_rps", w.goodput_rps);
    AppendI(&out, "active_replicas", w.active_replicas, /*comma=*/false);
    out += "}";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------- Fleet

/// One replica slot: a full serving stack plus the fleet's view of it.
struct Fleet::Replica {
  enum class State {
    kInactive,      ///< built but out of service (never used / scaled down)
    kProvisioning,  ///< scale-up ordered; usable at ready_ms
    kActive,        ///< serving
    kDraining,      ///< finishing queued work ahead of a scale-down
    kDown,          ///< crashed; restarting, usable at ready_ms
  };

  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Server> server;
  State state = State::kInactive;
  double ready_ms = 0.0;
  int64_t incarnation = 0;  ///< completed recoveries; doubles as the
                            ///< injector generation for crash draws
  double net_scale = 1.0;   ///< slow-partition latency factor
  PendingTable pending;
  // Canary accounting, reset at each rollout.
  int64_t offered_since_rollout = 0;
  int64_t degraded_since_rollout = 0;
  /// Client-observed latencies of every delivery this replica served, in
  /// delivery order; the canary verdict compares the p99 of the bake
  /// suffix against the pre-rollout prefix.
  std::vector<double> lat_history;
};

Fleet::Fleet(const FleetConfig& config) : config_(config) {}
Fleet::~Fleet() = default;

Result<std::unique_ptr<Fleet>> Fleet::Create(const FleetConfig& config) {
  Status valid = ValidateFleetConfig(config);
  if (!valid.ok()) return valid;
  std::unique_ptr<Fleet> fleet(new Fleet(config));
  for (int i = 0; i < config.replica_slots; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->registry = std::make_unique<ModelRegistry>();
    auto server = Server::Create(replica->registry.get(), config.server);
    if (!server.ok()) return server.status();
    replica->server = std::move(server).value();
    replica->state = i < config.initial_replicas ? Replica::State::kActive
                                                 : Replica::State::kInactive;
    fleet->replicas_.push_back(std::move(replica));
  }
  return fleet;
}

double Fleet::ReplicaCapacityRps(const ServerConfig& server) {
  return static_cast<double>(server.workers) *
         static_cast<double>(server.batch.max_batch) * 1000.0 /
         EstimateServiceMs(server.cost, server.batch.max_batch);
}

Status Fleet::Deploy(const std::string& model, Sequential net,
                     const Shape& example_shape) {
  if (deployed_) return Status::FailedPrecondition("fleet already deployed");
  if (model.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  model_ = model;
  net_ = std::move(net);
  example_shape_ = example_shape;
  for (auto& replica : replicas_) {
    auto version = replica->server->Publish(model_, net_, example_shape_);
    if (!version.ok()) return version.status();
  }
  deployed_ = true;
  return Status::OK();
}

Result<FleetReport> Fleet::Run(const ChaosScenario& scenario,
                               const TraceLoadConfig& load) {
  using State = Replica::State;
  if (!deployed_) return Status::FailedPrecondition("Deploy before Run");
  if (ran_) {
    return Status::FailedPrecondition(
        "Run consumes the replica clocks; build a fresh Fleet");
  }
  if (load.model != model_) {
    return Status::InvalidArgument("load.model does not match the deployment");
  }
  Status valid = ValidateChaosScenario(scenario);
  if (!valid.ok()) return valid;
  auto compiled =
      CompileChaos(scenario, config_.replica_slots, config_.tick_ms);
  if (!compiled.ok()) return compiled.status();
  ran_ = true;

  const int slots = config_.replica_slots;
  FaultInjector injector(compiled.value().plan, slots);
  const std::vector<std::vector<int>>& targets = compiled.value().targets;
  Router router(config_.route,
                config_.seed ^ (scenario.seed * 0x9E3779B97F4A7C15ULL));
  HealthTracker tracker(config_.health, slots);
  AutoscalerConfig scale_cfg = config_.autoscale;
  scale_cfg.max_replicas = std::min(scale_cfg.max_replicas, slots);
  scale_cfg.min_replicas =
      std::min(scale_cfg.min_replicas, scale_cfg.max_replicas);
  Autoscaler autoscaler(scale_cfg, ReplicaCapacityRps(config_.server));

  const std::vector<double> arrivals = GenerateTraceArrivals(load);
  // Tenant attribution of the arrival stream (empty mix = untenanted,
  // byte-identical behavior); rid indexes this in step 7.
  const std::vector<std::string> tenant_of =
      AssignTenants(load.tenant_mix, load.seed,
                    static_cast<int64_t>(arrivals.size()));
  const double deadline_ms = load.deadline_ms > 0.0
                                 ? load.deadline_ms
                                 : config_.server.default_deadline_ms;

  auto snap = replicas_[0]->registry->Acquire(model_);
  const int64_t in_elems = snap ? snap->in_elems : 0;
  snap.reset();  // payloads only need the size; don't pin a version
  // No fleet decision reads an engine output, so request payloads come
  // from a small seeded pool drawn once: request rid carries
  // payload_pool[rid % kPayloadPool].
  constexpr int64_t kPayloadPool = 64;
  std::vector<Tensor> payload_pool;
  payload_pool.reserve(kPayloadPool);
  Rng payloads(load.seed ^ 0xF1EE7D00DULL);
  for (int64_t i = 0; i < kPayloadPool; ++i) {
    payload_pool.emplace_back(Shape{in_elems});
    payload_pool.back().FillGaussian(&payloads, 1.0f);
  }

  FleetReport report;
  report.scenario = scenario.name;
  report.duration_ms = load.duration_ms;
  for (const FleetFaultEvent& ev : scenario.events) {
    if (report.fault_start_ms < 0.0 || ev.start_ms < report.fault_start_ms) {
      report.fault_start_ms = ev.start_ms;
    }
  }

  // ---- windowed SLO accumulators ----------------------------------
  struct WindowAcc {
    int64_t offered = 0;
    int64_t ok = 0;
    int64_t missed = 0;
    int64_t shed = 0;
    std::vector<double> lat;
  };
  const double window_ms = config_.window_ms;
  std::vector<WindowAcc> windows;
  std::vector<int> win_active;
  auto window_at = [&](double t) -> WindowAcc& {
    const size_t idx =
        t <= 0.0 ? 0 : static_cast<size_t>(t / window_ms);
    if (idx >= windows.size()) windows.resize(idx + 1);
    return windows[idx];
  };
  // Every delivery records at most one latency and one path record.
  std::vector<double> all_lat;
  all_lat.reserve(arrivals.size());
  report.path_records.reserve(arrivals.size());

  // ---- critical-path attribution + burn-rate alerting -------------
  obs::AttributionAggregator aggregator(config_.attribution);
  obs::BurnRateAlerter alerter(config_.slo);

  // ---- in-flight deliveries ---------------------------------------
  struct Delivery {
    double deliver_ms = 0.0;
    double latency_ms = 0.0;
    bool ok = false;
    bool record_latency = false;
    int replica = -1;
    int64_t incarnation = 0;
    double finish_ms = 0.0;  ///< server-side finish; 0 for dead routes
    FleetReport::TenantRow* tenant = nullptr;  ///< null when untenanted
    /// Critical-path boundary stamps, valid when has_record. Built at
    /// harvest but fed to the aggregator/alerter only at finalize, when
    /// the delivery is known to have survived crash invalidation.
    obs::RequestPathRecord record;
    bool has_record = false;
  };
  std::vector<Delivery> outstanding;

  struct CanaryState {
    bool active = false;
    int replica = -1;
    double started_ms = 0.0;
    double severity = 1.0;
    /// lat_history length at rollout: entries before it are the baseline,
    /// entries after it are the bake window.
    size_t baseline_lat = 0;
  };
  CanaryState canary;
  std::vector<bool> event_started(scenario.events.size(), false);
  std::vector<bool> event_ended(scenario.events.size(), false);

  auto finalize = [&](const Delivery& d) {
    WindowAcc& w = window_at(d.deliver_ms);
    if (d.ok) {
      ++w.ok;
      ++report.completed_ok;
      if (d.tenant != nullptr) ++d.tenant->completed_ok;
    } else {
      ++w.missed;
      ++report.missed;
      if (d.tenant != nullptr) ++d.tenant->missed;
      if (canary.active && d.replica == canary.replica) {
        ++replicas_[static_cast<size_t>(d.replica)]->degraded_since_rollout;
      }
    }
    if (d.record_latency) {
      w.lat.push_back(d.latency_ms);
      all_lat.push_back(d.latency_ms);
      if (d.replica >= 0) {
        replicas_[static_cast<size_t>(d.replica)]->lat_history.push_back(
            d.latency_ms);
      }
      if (d.has_record) {
        const obs::RequestPathRecord& rec = d.record;
#if DLSYS_OBS
        const int64_t root = obs::RequestSpanId(rec.rid);
        DLSYS_TRACE_EMIT_SIM_NS("fleet.request", "fleet", rec.send_ns,
                                rec.deliver_ns - rec.send_ns, rec.rid, root,
                                -1);
        DLSYS_TRACE_EMIT_SIM_NS(
            "fleet.return", "fleet", rec.finish_ns,
            rec.deliver_ns - rec.finish_ns, rec.rid,
            obs::ComponentSpanId(rec.rid, obs::PathComponent::kReturnHop),
            root);
#endif
        report.path_records.push_back(rec);
        alerter.Record(rec, aggregator.Record(rec));
      }
    }
  };

  std::vector<Server::Completion> landed;  // harvest's scratch
  auto harvest = [&](int slot) {
    Replica& r = *replicas_[static_cast<size_t>(slot)];
    r.server->TakeCompletions(&landed);
    for (const Server::Completion& c : landed) {
      PendingReq* p = r.pending.Find(c.id);
      if (p == nullptr) continue;  // died in a crash: already counted
      Delivery d;
      d.deliver_ms = c.finish_ms + p->return_hop_ms;
      d.latency_ms = d.deliver_ms - p->client_t_ms;
      d.ok = d.deliver_ms <= p->client_deadline_ms;
      d.record_latency = true;
      d.replica = slot;
      d.incarnation = r.incarnation;
      d.finish_ms = c.finish_ms;
      d.tenant = p->tenant;
      // Quantize the path boundaries to integer sim-ns with the same
      // quantizer the sim-track spans use, so the decomposition sums
      // bitwise to the rendered end-to-end span.
      d.record.rid = c.rid;
      d.record.tenant = c.tenant;
      d.record.replica = slot;
      d.record.incarnation = r.incarnation;
      d.record.slot = c.slot;
      d.record.send_ns = obs::SimNs(p->client_t_ms);
      d.record.admit_ns = obs::SimNs(c.arrival_ms);
      d.record.quota_open_ns = obs::SimNs(c.quota_open_ms);
      d.record.dispatch_ns = obs::SimNs(c.dispatch_ms);
      d.record.finish_ns = obs::SimNs(c.finish_ms);
      d.record.deliver_ns = obs::SimNs(d.deliver_ms);
      d.record.deadline_ok = d.ok;
      d.has_record = true;
      outstanding.push_back(d);
      r.pending.Erase(p);
    }
  };

  auto crash = [&](int slot, double at_ms) {
    Replica& r = *replicas_[static_cast<size_t>(slot)];
    ++report.crashes;
    DLSYS_COUNTER_ADD("fleet.crash", 1);
    DLSYS_TRACE_INSTANT_SIM("fleet.crash", "fleet", at_ms, slot);
    // The queue dies with the replica; so do its in-flight batches
    // (stamped to finish after the crash instant).
    report.dropped_queued += r.server->DropQueued();
    WindowAcc& w = window_at(at_ms);
    w.missed += r.pending.size();
    report.missed += r.pending.size();
    r.pending.Clear([](const PendingReq& p) {
      if (p.tenant != nullptr) ++p.tenant->missed;
    });
    for (Delivery& d : outstanding) {
      if (d.replica == slot && d.incarnation == r.incarnation &&
          d.finish_ms > at_ms) {
        d.ok = false;
        d.record_latency = false;
        d.deliver_ms = at_ms;
      }
    }
    r.state = State::kDown;
    r.ready_ms =
        at_ms + (config_.recovery == FleetRecovery::kCheckpointedRestart
                     ? config_.restart_ms
                     : config_.replace_ms);
    if (canary.active && canary.replica == slot) canary.active = false;
  };

  auto republish = [&](int slot) -> Status {
    auto version = replicas_[static_cast<size_t>(slot)]->server->Publish(
        model_, net_, example_shape_);
    return version.ok() ? Status::OK() : version.status();
  };

  auto restart_due = [&](int slot, double at_ms) -> Status {
    Replica& r = *replicas_[static_cast<size_t>(slot)];
    if (config_.recovery == FleetRecovery::kColdReplace) {
      // A fresh instance: new registry, new server, republished model.
      r.registry = std::make_unique<ModelRegistry>();
      auto server = Server::Create(r.registry.get(), config_.server);
      if (!server.ok()) return server.status();
      r.server = std::move(server).value();
      Status pub = republish(slot);
      if (!pub.ok()) return pub;
    }
    ++r.incarnation;
    r.state = State::kActive;
    ++report.restarts;
    DLSYS_COUNTER_ADD("fleet.restart", 1);
    DLSYS_TRACE_INSTANT_SIM("fleet.restart", "fleet", at_ms, slot);
    return Status::OK();
  };

  // ---- the tick loop ----------------------------------------------
  const double tick = config_.tick_ms;
  const double load_end = load.start_ms + load.duration_ms;
  double next_probe = config_.health.interval_ms;
  double next_decide = scale_cfg.decide_interval_ms;
  int64_t arrivals_in_decide = 0;
  size_t next_arrival = 0;
  int64_t request_index = 0;
  std::vector<ReplicaView> view(static_cast<size_t>(slots));

  for (int64_t k = 0;; ++k) {
    const double T = static_cast<double>(k) * tick;
    const double now = T + tick;

    // 1. Replica timers: provisioning/restart completes, drains finish.
    for (int i = 0; i < slots; ++i) {
      Replica& r = *replicas_[static_cast<size_t>(i)];
      if (r.state == State::kProvisioning && r.ready_ms <= T) {
        r.state = State::kActive;
        tracker.Reset(i);
      } else if (r.state == State::kDown && r.ready_ms <= T) {
        Status restarted = restart_due(i, T);
        if (!restarted.ok()) return restarted;
      } else if (r.state == State::kDraining && r.pending.empty() &&
                 r.server->queue_depth() == 0) {
        r.server->SetDraining(false);
        r.state = State::kInactive;
      }
    }

    // 2. Chaos event transitions due at this tick.
    for (size_t e = 0; e < scenario.events.size(); ++e) {
      const FleetFaultEvent& ev = scenario.events[e];
      if (!event_started[e] && ev.start_ms <= T) {
        event_started[e] = true;
        switch (ev.kind) {
          case FaultKind::kCrashStorm:
            break;  // compiled into the fault plan; fires in step 3
          case FaultKind::kSlowPartition:
            for (int t : targets[e]) {
              replicas_[static_cast<size_t>(t)]->net_scale = ev.severity;
            }
            break;
          case FaultKind::kGrayFailure:
            for (int t : targets[e]) {
              replicas_[static_cast<size_t>(t)]->server->SetCostScale(
                  ev.severity);
            }
            break;
          case FaultKind::kBadVersionRollout: {
            int c = -1;
            for (int t : targets[e]) {
              if (replicas_[static_cast<size_t>(t)]->state == State::kActive) {
                c = t;
                break;
              }
            }
            if (c < 0) break;  // nothing active to canary onto
            Status pub = republish(c);
            if (!pub.ok()) return pub;
            Replica& cr = *replicas_[static_cast<size_t>(c)];
            cr.server->SetCostScale(ev.severity);
            cr.offered_since_rollout = 0;
            cr.degraded_since_rollout = 0;
            canary = CanaryState{true, c, T, ev.severity,
                                 cr.lat_history.size()};
            ++report.rollouts;
            DLSYS_COUNTER_ADD("fleet.rollout", 1);
            DLSYS_TRACE_INSTANT_SIM("fleet.rollout", "fleet", T, c);
            break;
          }
        }
      }
      if (event_started[e] && !event_ended[e] && ev.duration_ms > 0.0 &&
          ev.start_ms + ev.duration_ms <= T) {
        event_ended[e] = true;
        switch (ev.kind) {
          case FaultKind::kSlowPartition:
            for (int t : targets[e]) {
              replicas_[static_cast<size_t>(t)]->net_scale = 1.0;
            }
            break;
          case FaultKind::kGrayFailure:
            for (int t : targets[e]) {
              replicas_[static_cast<size_t>(t)]->server->SetCostScale(1.0);
            }
            break;
          default:
            break;
        }
      }
    }

    // 3. Canary bake verdict.
    if (canary.active && T >= canary.started_ms + config_.canary.bake_ms) {
      Replica& cr = *replicas_[static_cast<size_t>(canary.replica)];
      const double degraded =
          cr.offered_since_rollout > 0
              ? static_cast<double>(cr.degraded_since_rollout) /
                    static_cast<double>(cr.offered_since_rollout)
              : 0.0;
      // Windowed p99 regression: a latency lemon whose responses still
      // land inside the deadline produces zero degraded deliveries, so
      // the bake also compares the canary's p99 during the bake against
      // its own pre-rollout baseline.
      bool lat_regressed = false;
      if (config_.canary.max_p99_regression > 0.0) {
        const size_t mins =
            static_cast<size_t>(config_.canary.min_p99_samples);
        const size_t split =
            std::min(canary.baseline_lat, cr.lat_history.size());
        std::vector<double> base(cr.lat_history.begin(),
                                 cr.lat_history.begin() +
                                     static_cast<ptrdiff_t>(split));
        std::vector<double> bake(cr.lat_history.begin() +
                                     static_cast<ptrdiff_t>(split),
                                 cr.lat_history.end());
        if (base.size() >= mins && bake.size() >= mins) {
          const double p99_base = Percentile(&base, 0.99);
          const double p99_bake = Percentile(&bake, 0.99);
          lat_regressed =
              p99_base > 0.0 &&
              p99_bake > config_.canary.max_p99_regression * p99_base;
        }
      }
      if (degraded > config_.canary.max_degraded_fraction || lat_regressed) {
        if (lat_regressed) {
          DLSYS_COUNTER_ADD("fleet.canary.p99_regression", 1);
          if (config_.canary.auto_rollback) ++report.p99_rollbacks;
        }
        if (config_.canary.auto_rollback) {
          Status pub = republish(canary.replica);
          if (!pub.ok()) return pub;
          cr.server->SetCostScale(1.0);
          ++report.rollbacks;
          DLSYS_COUNTER_ADD("fleet.rollback", 1);
          DLSYS_TRACE_INSTANT_SIM("fleet.rollback", "fleet", T,
                                  canary.replica);
        }
        // Without auto_rollback the bad canary just keeps serving.
      } else {
        // Bake passed: the (possibly slow) version rolls out fleet-wide.
        for (int i = 0; i < slots; ++i) {
          Replica& r = *replicas_[static_cast<size_t>(i)];
          if (i == canary.replica || r.state != State::kActive) continue;
          Status pub = republish(i);
          if (!pub.ok()) return pub;
          r.server->SetCostScale(canary.severity);
        }
      }
      canary.active = false;
    }

    // 4. Crash draws for this tick (scheduled storms + background).
    for (int i = 0; i < slots; ++i) {
      Replica& r = *replicas_[static_cast<size_t>(i)];
      if (r.state != State::kActive && r.state != State::kDraining) continue;
      if (injector.CrashesAt(i, k, r.incarnation)) {
        injector.ConsumeCrash(i, k);
        crash(i, T);
      }
    }

    // 5. Health probes: a down replica fails its probe, everything else
    // that is serving answers (gray failures answer by design).
    while (next_probe <= T) {
      for (int i = 0; i < slots; ++i) {
        const State st = replicas_[static_cast<size_t>(i)]->state;
        if (st == State::kActive) {
          tracker.Probe(i, true);
        } else if (st == State::kDown) {
          tracker.Probe(i, false);
        }
      }
      next_probe += config_.health.interval_ms;
    }

    // 6. Autoscaler decisions.
    while (next_decide <= T) {
      const double rate = static_cast<double>(arrivals_in_decide) * 1000.0 /
                          scale_cfg.decide_interval_ms;
      arrivals_in_decide = 0;
      int current = 0;
      for (const auto& r : replicas_) {
        if (r->state == State::kActive || r->state == State::kProvisioning ||
            r->state == State::kDown) {
          ++current;
        }
      }
      const int desired = autoscaler.Desired(rate, current);
      if (desired > current) {
        int need = desired - current;
        for (int i = 0; i < slots && need > 0; ++i) {
          Replica& r = *replicas_[static_cast<size_t>(i)];
          if (r.state == State::kDraining) {
            // Cheapest capacity: cancel an in-progress drain.
            r.server->SetDraining(false);
            r.state = State::kActive;
            --need;
            ++report.scale_ups;
          } else if (r.state == State::kInactive) {
            r.state = State::kProvisioning;
            r.ready_ms = T + scale_cfg.provision_lag_ms;
            --need;
            ++report.scale_ups;
            DLSYS_COUNTER_ADD("fleet.scale_up", 1);
            DLSYS_TRACE_INSTANT_SIM("fleet.scale_up", "fleet", T, i);
          }
        }
      } else if (desired < current) {
        int excess = current - desired;
        for (int i = slots - 1; i >= 0 && excess > 0; --i) {
          Replica& r = *replicas_[static_cast<size_t>(i)];
          if (r.state == State::kProvisioning) {
            r.state = State::kInactive;  // cancel the pending order
            --excess;
            ++report.scale_downs;
          } else if (r.state == State::kActive &&
                     !(canary.active && canary.replica == i)) {
            r.server->SetDraining(true);
            tracker.MarkUnhealthy(i);
            r.state = State::kDraining;
            --excess;
            ++report.scale_downs;
            DLSYS_COUNTER_ADD("fleet.scale_down", 1);
            DLSYS_TRACE_INSTANT_SIM("fleet.scale_down", "fleet", T, i);
          }
        }
      }
      next_decide += scale_cfg.decide_interval_ms;
    }

    // 7. Route and submit this tick's arrivals.
    while (next_arrival < arrivals.size() && arrivals[next_arrival] < now) {
      const double t = arrivals[next_arrival];
      ++next_arrival;
      const int64_t rid = request_index++;
      ++arrivals_in_decide;
      ++report.offered;
      // rid counts every arrival in order, so it indexes tenant_of.
      const std::string tenant =
          tenant_of.empty() ? std::string()
                            : tenant_of[static_cast<size_t>(rid)];
      FleetReport::TenantRow* trow =
          tenant.empty() ? nullptr : &report.tenants[tenant];
      if (trow != nullptr) ++trow->offered;
      WindowAcc& aw = window_at(t);
      ++aw.offered;
      for (int i = 0; i < slots; ++i) {
        Replica& r = *replicas_[static_cast<size_t>(i)];
        // A crashed-but-undetected replica stays in the rotation: that
        // is the cost of detection latency the metrics charge for.
        const bool routable =
            tracker.healthy(i) &&
            (r.state == State::kActive || r.state == State::kDown);
        ReplicaView& v = view[static_cast<size_t>(i)];
        v.routable = routable;
        v.queue_depth = routable ? r.server->queue_depth() : 0;
        v.backlog_ms =
            routable ? std::max(0.0, r.server->earliest_worker_free_ms() -
                                         r.server->clock_ms())
                     : 0.0;
      }
      const int pick = router.Pick(view, rid);
      if (pick < 0) {
        DLSYS_COUNTER_ADD("serve.shed.unhealthy_replica", 1);
        DLSYS_TRACE_INSTANT_SIM("serve.shed.unhealthy_replica", "fleet", t,
                                rid);
        ++report.shed_unhealthy;
        ++aw.shed;
        if (trow != nullptr) ++trow->shed;
        continue;
      }
      Replica& r = *replicas_[static_cast<size_t>(pick)];
      const NetworkModel net =
          r.net_scale != 1.0 ? config_.network.WithLatencyScaled(r.net_scale)
                             : config_.network;
      int64_t lost = 0;
      if (scenario.drop_prob > 0.0) {
        lost = injector.FailedAttempts(pick, k, rid, net.max_retries);
      }
      const double fwd_ms =
          net.TransferWithRetries(config_.request_bytes, lost) * 1000.0;
      const double ret_ms =
          net.TransferSeconds(config_.response_bytes) * 1000.0;
      if (canary.active && pick == canary.replica) {
        ++r.offered_since_rollout;
      }
      if (r.state == State::kDown) {
        // Routed into the detection gap: the request times out.
        ++report.failed_dead_replica;
        DLSYS_COUNTER_ADD("fleet.failed.dead_replica", 1);
        Delivery d;
        d.deliver_ms = t + fwd_ms + net.timeout_seconds * 1000.0;
        d.ok = false;
        d.record_latency = false;
        d.replica = pick;
        d.incarnation = r.incarnation;
        d.tenant = trow;
        outstanding.push_back(d);
        continue;
      }
      // Arrival at the replica, clamped to its clock so per-server
      // submits stay monotone even when retry penalties vary.
      const double ta = std::max(t + fwd_ms, r.server->clock_ms());
      const double budget = (t + deadline_ms) - ret_ms - ta;
      DLSYS_TRACE_EMIT_SIM_NS(
          "fleet.route", "fleet", obs::SimNs(t), obs::SimNs(ta) - obs::SimNs(t),
          rid, obs::ComponentSpanId(rid, obs::PathComponent::kRouteHop),
          obs::RequestSpanId(rid));
      const obs::RequestTrace rtrace{rid, r.incarnation};
      const Server::SubmitResult sr = r.server->Submit(
          model_, payload_pool[static_cast<size_t>(rid % kPayloadPool)], ta,
          budget > 0.0 ? budget : 1e-9, tenant, &rtrace);
      const bool admitted = sr.outcome == Server::Outcome::kAdmitted;
      if (admitted) {
        ++report.admitted;
        if (trow != nullptr) ++trow->admitted;
        r.pending.Insert(sr.id, PendingReq{t, t + deadline_ms, ret_ms, trow});
      } else {
        ++aw.shed;
        if (trow != nullptr) ++trow->shed;
        if (canary.active && pick == canary.replica) {
          ++r.degraded_since_rollout;
        }
        switch (sr.outcome) {
          case Server::Outcome::kShedQueueFull:
            ++report.shed_queue_full;
            break;
          case Server::Outcome::kShedDeadline:
            ++report.shed_deadline;
            break;
          case Server::Outcome::kShedDraining:
            ++report.shed_draining;
            break;
          default:
            return Status::Internal("model missing from replica registry");
        }
      }
    }

    // 8. Advance every serving replica to the tick end and collect what
    // finished.
    for (const auto& r : replicas_) {
      if ((r->state == State::kActive || r->state == State::kDraining) &&
          r->server->clock_ms() < now) {
        r->server->AdvanceTo(now);
      }
    }
    for (int i = 0; i < slots; ++i) harvest(i);

    // 9. Deliver responses due by the tick end.
    {
      size_t kept = 0;
      for (size_t i = 0; i < outstanding.size(); ++i) {
        if (outstanding[i].deliver_ms <= now) {
          finalize(outstanding[i]);
        } else {
          outstanding[kept++] = outstanding[i];
        }
      }
      outstanding.resize(kept);
    }

    // Record the active-replica count for this tick's window (the last
    // tick in a window wins, i.e. the count at window close).
    {
      const size_t widx = static_cast<size_t>(T / window_ms);
      if (widx >= win_active.size()) win_active.resize(widx + 1, 0);
      int active = 0;
      for (const auto& r : replicas_) {
        if (r->state == State::kActive) ++active;
      }
      win_active[widx] = active;
    }

    if (T >= load_end) {
      bool inflight = !outstanding.empty();
      for (const auto& r : replicas_) {
        inflight = inflight || !r->pending.empty();
      }
      if (!inflight || T > load_end + kTailLimitMs) break;
    }
  }

  // Force-drain whatever survived the tail limit.
  for (int i = 0; i < slots; ++i) {
    Replica& r = *replicas_[static_cast<size_t>(i)];
    if ((r.state == State::kActive || r.state == State::kDraining) &&
        r.server->queue_depth() > 0) {
      r.server->Drain();
    }
    harvest(i);
  }
  for (const Delivery& d : outstanding) finalize(d);
  outstanding.clear();
  report.attribution = aggregator.report();
  report.alerts = alerter.Evaluate();

  // ---- fold windows into the report -------------------------------
  report.p99_ms = Percentile(&all_lat, 0.99);
  report.windows.reserve(windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    WindowAcc& acc = windows[i];
    FleetWindow w;
    w.start_ms = static_cast<double>(i) * window_ms;
    w.offered = acc.offered;
    w.completed_ok = acc.ok;
    w.missed = acc.missed;
    w.shed = acc.shed;
    w.p99_ms = Percentile(&acc.lat, 0.99);
    w.goodput_rps = static_cast<double>(acc.ok) * 1000.0 / window_ms;
    w.active_replicas = i < win_active.size() ? win_active[i] : 0;
    report.windows.push_back(w);
  }

  // Steady state over complete pre-fault windows inside the load span.
  // Recovery is detected on the *served fraction* (completed_ok /
  // offered per window) rather than absolute goodput, so a diurnal load
  // decline after the fault does not read as an outage: time-to-recover
  // is the first post-fault window opening a run of recover_streak
  // windows whose served fraction is back within 10% of the pre-fault
  // mean.
  const auto served_fraction = [](const FleetWindow& w) {
    return w.offered > 0 ? static_cast<double>(w.completed_ok) /
                               static_cast<double>(w.offered)
                         : 1.0;
  };
  size_t limit = static_cast<size_t>(load_end / window_ms);
  limit = std::min(limit, report.windows.size());
  const double fault = report.fault_start_ms;
  const size_t fault_w =
      fault >= 0.0 ? static_cast<size_t>(fault / window_ms) : limit;
  double steady_sum = 0.0;
  double steady_frac_sum = 0.0;
  size_t steady_n = 0;
  for (size_t i = 0; i < std::min(fault_w, limit); ++i) {
    steady_sum += report.windows[i].goodput_rps;
    steady_frac_sum += served_fraction(report.windows[i]);
    ++steady_n;
  }
  report.steady_goodput_rps =
      steady_n > 0 ? steady_sum / static_cast<double>(steady_n) : 0.0;
  const double steady_frac =
      steady_n > 0 ? steady_frac_sum / static_cast<double>(steady_n) : 0.0;
  if (fault >= 0.0 && steady_frac > 0.0) {
    const double bar = 0.9 * steady_frac;
    const size_t streak = static_cast<size_t>(config_.recover_streak);
    for (size_t i = fault_w; i + streak <= limit; ++i) {
      bool recovered = true;
      for (size_t j = 0; j < streak; ++j) {
        recovered =
            recovered && served_fraction(report.windows[i + j]) >= bar;
      }
      if (recovered) {
        report.time_to_recover_ms =
            std::max(0.0, static_cast<double>(i) * window_ms - fault);
        break;
      }
    }
  }
  return report;
}

}  // namespace dlsys
