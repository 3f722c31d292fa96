#include "src/serve/loadgen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "src/core/rng.h"

namespace dlsys {

namespace {

/// Folds every completion appended at or after index \p first into
/// \p report and returns the largest finish time seen.
double FoldCompletions(const Server& server, size_t first,
                       LoadReport* report) {
  double last_finish = 0.0;
  const std::vector<Server::Completion>& done = server.completions();
  for (size_t i = first; i < done.size(); ++i) {
    const Server::Completion& c = done[i];
    ++report->completed;
    if (c.deadline_missed) ++report->deadline_missed;
    report->latency.Record(c.finish_ms - c.arrival_ms);
    last_finish = std::max(last_finish, c.finish_ms);
  }
  return last_finish;
}

void FinishReport(double first_ms, double last_finish_ms, double wall_seconds,
                  LoadReport* report) {
  report->wall_seconds = wall_seconds;
  report->duration_ms = std::max(0.0, last_finish_ms - first_ms);
  if (report->duration_ms > 0.0) {
    report->sim_throughput_rps = static_cast<double>(report->completed) /
                                 (report->duration_ms / 1000.0);
  }
  if (wall_seconds > 0.0) {
    report->real_throughput_rps =
        static_cast<double>(report->completed) / wall_seconds;
  }
}

}  // namespace

std::vector<TenantShare> BalancedTenantMix(int n) {
  std::vector<TenantShare> mix;
  mix.reserve(static_cast<size_t>(std::max(0, n)));
  for (int i = 0; i < n; ++i) {
    mix.push_back({"t" + std::to_string(i), 1.0});
  }
  return mix;
}

std::vector<TenantShare> HotTenantMix(int n, double hot_factor) {
  std::vector<TenantShare> mix = BalancedTenantMix(n);
  if (!mix.empty()) mix[0].share = hot_factor;
  return mix;
}

std::vector<std::string> AssignTenants(const std::vector<TenantShare>& mix,
                                       uint64_t seed, int64_t n) {
  std::vector<std::string> assignment;
  if (mix.empty() || n <= 0) return assignment;
  double total = 0.0;
  for (const TenantShare& share : mix) total += std::max(0.0, share.share);
  // The third fork of the seed's root: RunTenantedOpenLoop spends the
  // first two on arrival gaps and payloads, so a caller with its own
  // arrival process reproduces the identical assignment from (mix, seed).
  Rng root(seed);
  root.Fork();
  root.Fork();
  Rng draws = root.Fork();
  assignment.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double u = draws.Uniform() * total;
    double cum = 0.0;
    size_t pick = mix.size() - 1;
    for (size_t j = 0; j < mix.size(); ++j) {
      cum += std::max(0.0, mix[j].share);
      if (u < cum) {
        pick = j;
        break;
      }
    }
    assignment.push_back(mix[pick].tenant);
  }
  return assignment;
}

TenantedLoadReport RunTenantedOpenLoop(Server* server,
                                       const TenantedLoadConfig& config) {
  TenantedLoadReport report;
  std::shared_ptr<ModelSnapshot> snap =
      server->registry()->Acquire(config.model);
  const int64_t in_elems = snap == nullptr ? 1 : snap->in_elems;
  snap.reset();

  Rng root(config.seed);
  Rng arrivals = root.Fork();
  Rng payloads = root.Fork();
  const std::vector<std::string> tenant_of =
      AssignTenants(config.mix, config.seed, config.requests);
  const size_t completions_before = server->completions().size();
  Tensor example({in_elems});

  Stopwatch wall;
  double t = std::max(config.start_ms, server->clock_ms());
  const double first_ms = t;
  std::map<int64_t, std::string> owner;  // request id -> tenant
  for (int64_t i = 0; i < config.requests; ++i) {
    t += -std::log(1.0 - arrivals.Uniform()) / config.rate_rps * 1000.0;
    const std::string tenant =
        tenant_of.empty() ? std::string("default")
                          : tenant_of[static_cast<size_t>(i)];
    example.FillGaussian(&payloads, 1.0f);
    const Server::SubmitResult r =
        server->Submit(config.model, example, t, config.deadline_ms, tenant);
    LoadReport& per = report.by_tenant[tenant];
    ++report.total.offered;
    ++per.offered;
    if (r.outcome == Server::Outcome::kAdmitted) {
      ++report.total.admitted;
      ++per.admitted;
      owner[r.id] = tenant;
    } else {
      ++report.total.shed;
      ++per.shed;
    }
  }
  server->Drain();

  double last_finish = 0.0;
  const std::vector<Server::Completion>& done = server->completions();
  for (size_t i = completions_before; i < done.size(); ++i) {
    const Server::Completion& c = done[i];
    auto it = owner.find(c.id);
    if (it == owner.end()) continue;  // earlier traffic, not this run's
    LoadReport& per = report.by_tenant[it->second];
    ++report.total.completed;
    ++per.completed;
    if (c.deadline_missed) {
      ++report.total.deadline_missed;
      ++per.deadline_missed;
    }
    const double latency = c.finish_ms - c.arrival_ms;
    report.total.latency.Record(latency);
    per.latency.Record(latency);
    last_finish = std::max(last_finish, c.finish_ms);
  }
  FinishReport(first_ms, last_finish, wall.Seconds(), &report.total);

  // Per-tenant goodput over the run's simulated makespan, and the
  // max/min ratio the fairness tests bound. A tenant that offered load
  // but got nothing through makes the ratio infinite (starvation).
  const double duration_s = report.total.duration_ms / 1000.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (auto& [tenant, per] : report.by_tenant) {
    const double good =
        duration_s > 0.0
            ? static_cast<double>(per.completed - per.deadline_missed) /
                  duration_s
            : 0.0;
    report.goodput_rps[tenant] = good;
    per.duration_ms = report.total.duration_ms;
    if (per.offered > 0) {
      lo = std::min(lo, good);
      hi = std::max(hi, good);
    }
  }
  if (report.by_tenant.empty() || !std::isfinite(lo)) {
    report.max_min_goodput_ratio = 1.0;
  } else if (lo <= 0.0) {
    report.max_min_goodput_ratio = std::numeric_limits<double>::infinity();
  } else {
    report.max_min_goodput_ratio = hi / lo;
  }
  return report;
}

double TraceRateAt(const TraceLoadConfig& config, double t_ms) {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  double rate = config.base_rps;
  if (config.diurnal_amplitude != 0.0 && config.diurnal_period_ms > 0.0) {
    rate *= 1.0 + config.diurnal_amplitude *
                      std::sin(kTwoPi * (t_ms - config.start_ms) /
                               config.diurnal_period_ms);
  }
  for (const FlashCrowd& crowd : config.crowds) {
    if (t_ms >= crowd.start_ms && t_ms < crowd.start_ms + crowd.duration_ms) {
      rate *= crowd.multiplier;
    }
  }
  return std::max(0.0, rate);
}

double TracePeakRate(const TraceLoadConfig& config) {
  // The diurnal peak is analytic; flash crowds multiply on top. Assume
  // the worst case where every crowd interval sees the diurnal peak —
  // the envelope only needs to dominate, not be tight.
  double peak = config.base_rps * (1.0 + std::abs(config.diurnal_amplitude));
  double crowd_peak = 1.0;
  for (const FlashCrowd& crowd : config.crowds) {
    crowd_peak = std::max(crowd_peak, crowd.multiplier);
  }
  return peak * crowd_peak;
}

std::vector<double> GenerateTraceArrivals(const TraceLoadConfig& config) {
  std::vector<double> arrivals;
  const double peak = TracePeakRate(config);
  if (peak <= 0.0 || config.duration_ms <= 0.0) return arrivals;
  Rng rng(config.seed);
  Rng gaps = rng.Fork();
  Rng keep = rng.Fork();
  double t = config.start_ms;
  const double end = config.start_ms + config.duration_ms;
  while (true) {
    t += -std::log(1.0 - gaps.Uniform()) / peak * 1000.0;
    if (t >= end) break;
    // Thinning: the candidate survives with probability rate(t) / peak,
    // turning the homogeneous envelope into the shaped process.
    if (keep.Uniform() * peak < TraceRateAt(config, t)) {
      arrivals.push_back(t);
    }
  }
  return arrivals;
}

LoadReport RunOpenLoop(Server* server, const OpenLoopConfig& config,
                       const std::function<void(int64_t)>& before_submit) {
  LoadReport report;
  std::shared_ptr<ModelSnapshot> snap =
      server->registry()->Acquire(config.model);
  const int64_t in_elems = snap == nullptr ? 1 : snap->in_elems;
  snap.reset();  // payloads only need the size; don't pin a version

  Rng root(config.seed);
  Rng arrivals = root.Fork();
  Rng payloads = root.Fork();
  const size_t completions_before = server->completions().size();
  Tensor example({in_elems});

  Stopwatch wall;
  double t = std::max(config.start_ms, server->clock_ms());
  const double first_ms = t;
  for (int64_t i = 0; i < config.requests; ++i) {
    // Inverse-CDF exponential gap: Poisson arrivals at rate_rps.
    t += -std::log(1.0 - arrivals.Uniform()) / config.rate_rps * 1000.0;
    if (before_submit) before_submit(i);
    example.FillGaussian(&payloads, 1.0f);
    const Server::SubmitResult r =
        server->Submit(config.model, example, t, config.deadline_ms);
    ++report.offered;
    if (r.outcome == Server::Outcome::kAdmitted) {
      ++report.admitted;
    } else {
      ++report.shed;
    }
  }
  server->Drain();
  const double last_finish = FoldCompletions(*server, completions_before,
                                             &report);
  FinishReport(first_ms, last_finish, wall.Seconds(), &report);
  return report;
}

}  // namespace dlsys
