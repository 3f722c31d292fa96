#include "src/serve/admission.h"

#include <algorithm>
#include <cmath>

namespace dlsys {

namespace {

/// One tenant policy's field checks; \p who names the policy in the
/// error ("scheduler.default_policy" or "scheduler.tenants[<name>]").
Status ValidateTenantPolicy(const std::string& who, const TenantPolicy& policy,
                            int priority_classes) {
  if (!std::isfinite(policy.rate_rps)) {
    return Status::InvalidArgument(who + ".rate_rps must be finite");
  }
  if (!(policy.burst >= 1.0) || !std::isfinite(policy.burst)) {
    return Status::InvalidArgument(
        who + ".burst must be finite and >= 1 (one request must fit)");
  }
  if (!(policy.weight > 0.0) || !std::isfinite(policy.weight)) {
    return Status::InvalidArgument(
        who + ".weight must be finite and positive");
  }
  if (policy.priority < 0 || policy.priority >= priority_classes) {
    return Status::InvalidArgument(
        who + ".priority must lie in [0, scheduler.priority_classes)");
  }
  return Status::OK();
}

}  // namespace

double EstimateServiceMs(const ServiceCostModel& cost, int64_t batch_size) {
  return cost.fixed_ms +
         cost.per_example_ms * static_cast<double>(batch_size);
}

Status ValidateServerConfig(const ServerConfig& config) {
  if (config.workers < 1) {
    return Status::InvalidArgument("worker count must be >= 1");
  }
  if (config.batch.max_batch < 1) {
    return Status::InvalidArgument("batch.max_batch must be >= 1");
  }
  if (config.queue_capacity < config.batch.max_batch) {
    return Status::InvalidArgument(
        "queue_capacity must be >= batch.max_batch so a full batch can form");
  }
  if (!(config.batch.max_delay_ms >= 0.0) ||
      !std::isfinite(config.batch.max_delay_ms)) {
    return Status::InvalidArgument(
        "batch.max_delay_ms must be finite and non-negative");
  }
  if (!(config.default_deadline_ms > 0.0) ||
      !std::isfinite(config.default_deadline_ms)) {
    return Status::InvalidArgument(
        "default_deadline_ms must be finite and positive");
  }
  if (!(config.cost.fixed_ms >= 0.0) || !std::isfinite(config.cost.fixed_ms)) {
    return Status::InvalidArgument(
        "cost.fixed_ms must be finite and non-negative");
  }
  if (!(config.cost.per_example_ms >= 0.0) ||
      !std::isfinite(config.cost.per_example_ms)) {
    return Status::InvalidArgument(
        "cost.per_example_ms must be finite and non-negative");
  }
  const SlotSchedulerConfig& sched = config.scheduler;
  if (sched.slots_per_worker < 0) {
    return Status::InvalidArgument(
        "scheduler.slots_per_worker must be >= 0 (0 selects batch.max_batch)");
  }
  if (sched.priority_classes < 1) {
    return Status::InvalidArgument("scheduler.priority_classes must be >= 1");
  }
  DLSYS_RETURN_NOT_OK(ValidateTenantPolicy(
      "scheduler.default_policy", sched.default_policy,
      sched.priority_classes));
  for (const auto& [tenant, policy] : sched.tenants) {
    if (tenant.empty()) {
      return Status::InvalidArgument(
          "scheduler.tenants keys must be non-empty tenant names");
    }
    DLSYS_RETURN_NOT_OK(ValidateTenantPolicy(
        "scheduler.tenants[" + tenant + "]", policy, sched.priority_classes));
  }
  return Status::OK();
}

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kDeadlineInfeasible:
      return "deadline_infeasible";
    case ShedReason::kDraining:
      return "draining";
    case ShedReason::kUnhealthyReplica:
      return "unhealthy_replica";
  }
  return "unknown";
}

AdmissionDecision DecideAdmission(int64_t queue_capacity,
                                  const ServiceCostModel& cost,
                                  const AdmissionInputs& in) {
  if (in.draining) {
    return AdmissionDecision::kShedDraining;
  }
  if (in.queue_depth >= queue_capacity) {
    return AdmissionDecision::kShedQueueFull;
  }
  // Earliest the request's batch can start: when the batch is ready to
  // dispatch and a worker is free, never before the request exists.
  const double predicted_start =
      std::max({in.batch_ready_ms, in.earliest_worker_free_ms, in.arrival_ms});
  const double predicted_finish =
      predicted_start + EstimateServiceMs(cost, in.prospective_batch);
  if (predicted_finish > in.arrival_ms + in.deadline_budget_ms) {
    return AdmissionDecision::kShedDeadline;
  }
  return AdmissionDecision::kAdmit;
}

}  // namespace dlsys
