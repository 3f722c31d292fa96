// Serving-layer bench (E32): the batching throughput/p99 frontier across
// worker counts, the shed-rate curve of deadline-aware admission under
// rising offered load, and tail latency across an atomic hot swap under
// sustained load. Results land in BENCH_serving.json.
//
// All scheduling runs on the simulated clock from the declared service
// cost model, so every number except wall_seconds / real_rps replays
// bit for bit for a fixed seed. Engines execute for real on the server's
// worker pool; DLSYS_THREADS stays at 1 so the pool's inter-op
// parallelism is not serialized behind the global intra-op pool (see
// DESIGN.md §2e). Latency quantiles are exact nearest-rank quantiles of
// the completions' simulated latencies, not histogram bucket edges. Pass
// --smoke (or DLSYS_BENCH_SMOKE=1) for a seconds-scale CI run.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/nearest_rank.h"
#include "src/core/metrics.h"
#include "src/core/rng.h"
#include "src/nn/train.h"
#include "src/runtime/runtime.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"

namespace dlsys {
namespace {

bool g_smoke = false;

constexpr int64_t kInElems = 32;

Sequential MakeServeNet(uint64_t seed) {
  Sequential net = MakeMlp(kInElems, {g_smoke ? 32 : 128}, 10);
  Rng rng(seed);
  net.Init(&rng);
  return net;
}

struct ServerUnderTest {
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Server> server;
};

ServerUnderTest MakeServer(const ServerConfig& config) {
  ServerUnderTest sut;
  sut.registry = std::make_unique<ModelRegistry>();
  auto created = Server::Create(sut.registry.get(), config);
  DLSYS_CHECK(created.ok(), "server config invalid");
  sut.server = std::move(created).value();
  auto version = sut.server->Publish("m", MakeServeNet(71), {kInElems});
  DLSYS_CHECK(version.ok(), "publish failed");
  return sut;
}

/// Simulated latencies (finish - arrival) of \p server's completions that
/// \p keep accepts, ascending: the samples exact quantiles are read from.
template <typename Keep>
std::vector<double> SortedLatencies(const Server& server, Keep keep) {
  std::vector<double> lat;
  for (const Server::Completion& c : server.completions()) {
    if (keep(c)) lat.push_back(c.finish_ms - c.arrival_ms);
  }
  std::sort(lat.begin(), lat.end());
  return lat;
}

std::vector<double> SortedLatencies(const Server& server) {
  return SortedLatencies(server, [](const Server::Completion&) {
    return true;
  });
}

/// Exact nearest-rank quantile, an observed latency rather than a
/// histogram bucket edge; 0 when nothing completed.
double Quantile(const std::vector<double>& sorted, double q) {
  return sorted.empty() ? 0.0 : NearestRank(sorted, q);
}

/// Offered rate that saturates the declared cost model at full batches.
double CapacityRps(const ServerConfig& config) {
  return static_cast<double>(config.workers) *
         static_cast<double>(config.batch.max_batch) * 1000.0 /
         EstimateServiceMs(config.cost, config.batch.max_batch);
}

// ------------------------------------------- 1. throughput/p99 frontier

struct FrontierRow {
  int workers = 0;
  int64_t max_batch = 0;
  double max_delay_ms = 0.0;
  double offered_rps = 0.0;
  double sim_rps = 0.0;
  double real_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
};

std::vector<FrontierRow> BenchFrontier() {
  std::vector<FrontierRow> rows;
  const std::vector<int> worker_counts =
      g_smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  struct Policy {
    int64_t max_batch;
    double max_delay_ms;
  };
  const std::vector<Policy> policies =
      g_smoke ? std::vector<Policy>{{1, 0.0}, {8, 0.2}}
              : std::vector<Policy>{{1, 0.0}, {8, 0.2}, {32, 0.5}};

  for (int workers : worker_counts) {
    for (const Policy& policy : policies) {
      ServerConfig config;
      config.workers = workers;
      config.batch.max_batch = policy.max_batch;
      config.batch.max_delay_ms = policy.max_delay_ms;
      config.queue_capacity = 64 * policy.max_batch;
      config.default_deadline_ms = 1e9;  // frontier: nothing sheds
      ServerUnderTest sut = MakeServer(config);

      OpenLoopConfig load;
      load.seed = 72;
      load.requests = g_smoke ? 200 : 4000;
      load.rate_rps = 0.8 * CapacityRps(config);  // feasible but busy
      load.model = "m";
      const LoadReport report = RunOpenLoop(sut.server.get(), load);
      DLSYS_CHECK(report.completed == report.admitted, "lost requests");
      const std::vector<double> lat = SortedLatencies(*sut.server);

      FrontierRow row;
      row.workers = workers;
      row.max_batch = policy.max_batch;
      row.max_delay_ms = policy.max_delay_ms;
      row.offered_rps = load.rate_rps;
      row.sim_rps = report.sim_throughput_rps;
      row.real_rps = report.real_throughput_rps;
      row.p50_ms = Quantile(lat, 0.5);
      row.p99_ms = Quantile(lat, 0.99);
      const MetricsReport m = sut.server->metrics();
      row.mean_batch = m.Get("serve.batches") > 0
                           ? m.Get("serve.admitted") / m.Get("serve.batches")
                           : 0.0;
      rows.push_back(row);
    }
  }
  return rows;
}

// ------------------------------------------------- 2. shed-rate curve

struct ShedRow {
  double load_multiplier = 0.0;
  double offered_rps = 0.0;
  double shed_fraction = 0.0;
  double deadline_miss_fraction = 0.0;  ///< of completed requests
  double p99_ms = 0.0;
  double goodput_rps = 0.0;  ///< completed within deadline, per sim second
};

std::vector<ShedRow> BenchShedCurve() {
  std::vector<ShedRow> rows;
  const std::vector<double> multipliers =
      g_smoke ? std::vector<double>{0.5, 2.0}
              : std::vector<double>{0.5, 0.8, 1.2, 2.0, 4.0};
  for (double mult : multipliers) {
    ServerConfig config;
    config.workers = 2;
    config.batch.max_batch = 8;
    config.batch.max_delay_ms = 0.2;
    config.queue_capacity = 4 * config.batch.max_batch;
    config.default_deadline_ms = 5.0;
    ServerUnderTest sut = MakeServer(config);

    OpenLoopConfig load;
    load.seed = 73;
    load.requests = g_smoke ? 300 : 4000;
    load.rate_rps = mult * CapacityRps(config);
    load.model = "m";
    const LoadReport report = RunOpenLoop(sut.server.get(), load);

    ShedRow row;
    row.load_multiplier = mult;
    row.offered_rps = load.rate_rps;
    row.shed_fraction = static_cast<double>(report.shed) /
                        static_cast<double>(report.offered);
    row.deadline_miss_fraction =
        report.completed > 0 ? static_cast<double>(report.deadline_missed) /
                                   static_cast<double>(report.completed)
                             : 0.0;
    row.p99_ms = Quantile(SortedLatencies(*sut.server), 0.99);
    row.goodput_rps =
        report.duration_ms > 0.0
            ? static_cast<double>(report.completed - report.deadline_missed) /
                  (report.duration_ms / 1000.0)
            : 0.0;
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------- 3. hot swap under load

struct SwapResult {
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t completed = 0;
  int64_t lost = 0;  ///< admitted - completed; the headline must be 0
  int64_t served_v1 = 0;
  int64_t served_v2 = 0;
  double p99_before_ms = 0.0;  ///< first third: steady v1
  double p99_during_ms = 0.0;  ///< middle third: the swap lands here
  double p99_after_ms = 0.0;   ///< last third: steady v2
};

SwapResult BenchHotSwap() {
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 8;
  config.batch.max_delay_ms = 0.2;
  config.queue_capacity = 8 * config.batch.max_batch;
  config.default_deadline_ms = 1e9;  // measure latency, not shedding
  ServerUnderTest sut = MakeServer(config);
  const Sequential net2 = MakeServeNet(74);

  OpenLoopConfig load;
  load.seed = 75;
  load.requests = g_smoke ? 300 : 3000;
  load.rate_rps = 0.7 * CapacityRps(config);
  load.model = "m";
  Server* server = sut.server.get();
  const int64_t swap_at = load.requests / 2;
  const LoadReport report = RunOpenLoop(
      server, load, [server, &net2, swap_at](int64_t i) {
        if (i == swap_at) {
          DLSYS_CHECK(server->Publish("m", net2, {kInElems}).ok(),
                      "hot swap failed");
        }
      });

  SwapResult result;
  result.offered = report.offered;
  result.admitted = report.admitted;
  result.completed = report.completed;
  result.lost = report.admitted - report.completed;
  const MetricsReport m = server->metrics();
  result.served_v1 = static_cast<int64_t>(m.Get("serve.m.served_v1"));
  result.served_v2 = static_cast<int64_t>(m.Get("serve.m.served_v2"));

  // The swap windows slice completions by request id into thirds.
  const int64_t third = load.requests / 3;
  const auto window_p99 = [&](int64_t w) {
    const std::vector<double> lat =
        SortedLatencies(*server, [&](const Server::Completion& c) {
          return std::min<int64_t>(c.id / third, 2) == w;
        });
    return Quantile(lat, 0.99);
  };
  result.p99_before_ms = window_p99(0);
  result.p99_during_ms = window_p99(1);
  result.p99_after_ms = window_p99(2);
  return result;
}

// ------------------------------------- 4. multi-tenant QoS (E37)

struct TenantBenchRow {
  std::string tenant;
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  double goodput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct QosRun {
  std::string mode;  ///< scheduler configuration under test
  double offered_rps = 0.0;
  double aggregate_goodput_rps = 0.0;
  double max_min_goodput_ratio = 0.0;
  std::vector<TenantBenchRow> tenants;
};

/// One tenanted open-loop run. `use_slots` false is the legacy FIFO
/// baseline; `fair` toggles DWFQ + per-tenant quotas (quota = a fair
/// quarter of declared capacity) in slot mode.
QosRun BenchTenantMix(const std::string& mode, bool use_slots, bool fair,
                      const std::vector<TenantShare>& mix,
                      double load_multiplier) {
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 8;
  config.batch.max_delay_ms = 0.2;
  config.queue_capacity = 8 * config.batch.max_batch;
  // A tight deadline — about five full-batch steps — keeps the run in
  // the admission-controlled regime: the hot tenant's excess sheds at
  // admission (its quota cannot fund the backlog in time) instead of
  // camping in the queue and dragging every tenant into queue-full.
  config.default_deadline_ms =
      5.0 * EstimateServiceMs(config.cost, config.batch.max_batch);
  config.scheduler.use_slots = use_slots;
  config.scheduler.fair_queueing = fair;
  config.scheduler.enforce_quotas = fair;
  if (fair) {
    // Per-tenant quota just under a fair quarter of capacity (so the
    // four quotas sum to 3/4 of the fleet, leaving headroom), plus a
    // burst of one full batch. An unthrottled tenant stays under it;
    // the 8x hot tenant pins against it.
    config.scheduler.default_policy.rate_rps = 0.1875 * CapacityRps(config);
    config.scheduler.default_policy.burst =
        static_cast<double>(config.batch.max_batch);
  }
  ServerUnderTest sut = MakeServer(config);

  TenantedLoadConfig load;
  load.seed = 76;
  load.requests = g_smoke ? 400 : 4000;
  load.rate_rps = load_multiplier * CapacityRps(config);
  load.deadline_ms = config.default_deadline_ms;
  load.model = "m";
  load.mix = mix;
  const TenantedLoadReport report =
      RunTenantedOpenLoop(sut.server.get(), load);

  QosRun run;
  run.mode = mode;
  run.offered_rps = load.rate_rps;
  run.aggregate_goodput_rps =
      report.total.duration_ms > 0.0
          ? static_cast<double>(report.total.completed -
                                report.total.deadline_missed) /
                (report.total.duration_ms / 1000.0)
          : 0.0;
  run.max_min_goodput_ratio = report.max_min_goodput_ratio;
  for (const auto& [tenant, per] : report.by_tenant) {
    TenantBenchRow row;
    row.tenant = tenant;
    row.offered = per.offered;
    row.admitted = per.admitted;
    row.shed = per.shed;
    row.goodput_rps = report.goodput_rps.at(tenant);
    const std::vector<double> lat =
        SortedLatencies(*sut.server, [&tenant](const Server::Completion& c) {
          return c.tenant == tenant;
        });
    row.p50_ms = Quantile(lat, 0.5);
    row.p99_ms = Quantile(lat, 0.99);
    run.tenants.push_back(row);
  }
  return run;
}

std::vector<QosRun> BenchTenantQos() {
  const std::vector<TenantShare> balanced = BalancedTenantMix(4);
  const std::vector<TenantShare> hot = HotTenantMix(4, 8.0);
  std::vector<QosRun> runs;
  // Balanced mix at a feasible load: the slot scheduler must not tax the
  // E32 FIFO plateau.
  runs.push_back(
      BenchTenantMix("fifo_balanced", /*use_slots=*/false, false, balanced,
                     0.8));
  runs.push_back(
      BenchTenantMix("slots_balanced", /*use_slots=*/true, false, balanced,
                     0.8));
  // Adversarial hot tenant at 1.4x capacity: DWFQ + quotas bound the
  // skew; the FIFO control shows the starvation they prevent.
  runs.push_back(BenchTenantMix("slots_fair_hot", /*use_slots=*/true, true,
                                hot, 1.375));
  runs.push_back(BenchTenantMix("slots_fifo_hot", /*use_slots=*/true, false,
                                hot, 1.375));
  return runs;
}

}  // namespace
}  // namespace dlsys

int main(int argc, char** argv) {
  using namespace dlsys;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  }
  if (const char* env = std::getenv("DLSYS_BENCH_SMOKE");
      env != nullptr && env[0] == '1') {
    g_smoke = true;
  }
  // Keep intra-op kernels single-threaded: the server's worker pool
  // provides the parallelism, and nested ParallelFor from its foreign
  // threads would serialize on the global pool's region lock.
  RuntimeConfig::SetThreads(1);

  const std::vector<FrontierRow> frontier = BenchFrontier();
  for (const FrontierRow& row : frontier) {
    std::printf(
        "frontier w=%d b=%-3lld d=%.1fms  offered %8.0f r/s | sim %8.0f r/s "
        "| real %8.0f r/s | p50 %6.3f ms | p99 %6.3f ms | batch %.1f\n",
        row.workers, static_cast<long long>(row.max_batch), row.max_delay_ms,
        row.offered_rps, row.sim_rps, row.real_rps, row.p50_ms, row.p99_ms,
        row.mean_batch);
  }

  const std::vector<ShedRow> shed = BenchShedCurve();
  for (const ShedRow& row : shed) {
    std::printf(
        "shed x%.1f  offered %8.0f r/s | shed %5.1f%% | miss %5.1f%% | "
        "p99 %6.3f ms | goodput %8.0f r/s\n",
        row.load_multiplier, row.offered_rps, 100.0 * row.shed_fraction,
        100.0 * row.deadline_miss_fraction, row.p99_ms, row.goodput_rps);
  }

  const SwapResult swap = BenchHotSwap();
  std::printf(
      "hotswap  admitted %lld | completed %lld | lost %lld | v1 %lld | "
      "v2 %lld | p99 %6.3f / %6.3f / %6.3f ms\n",
      static_cast<long long>(swap.admitted),
      static_cast<long long>(swap.completed),
      static_cast<long long>(swap.lost),
      static_cast<long long>(swap.served_v1),
      static_cast<long long>(swap.served_v2), swap.p99_before_ms,
      swap.p99_during_ms, swap.p99_after_ms);
  DLSYS_CHECK(swap.lost == 0, "hot swap lost admitted requests");

  const std::vector<QosRun> qos = BenchTenantQos();
  for (const QosRun& run : qos) {
    std::printf("tenant %-14s offered %8.0f r/s | goodput %8.0f r/s | "
                "max/min %6.2f\n",
                run.mode.c_str(), run.offered_rps, run.aggregate_goodput_rps,
                run.max_min_goodput_ratio);
    for (const TenantBenchRow& row : run.tenants) {
      std::printf("  %-4s offered %5lld | admitted %5lld | shed %5lld | "
                  "goodput %8.0f r/s | p50 %6.3f ms | p99 %6.3f ms\n",
                  row.tenant.c_str(), static_cast<long long>(row.offered),
                  static_cast<long long>(row.admitted),
                  static_cast<long long>(row.shed), row.goodput_rps,
                  row.p50_ms, row.p99_ms);
    }
  }
  // E37 acceptance, bench-enforced: continuous batching keeps the E32
  // FIFO plateau at a balanced mix, and DWFQ + quotas bound the hot-
  // tenant skew the FIFO control demonstrates.
  DLSYS_CHECK(qos[1].aggregate_goodput_rps >=
                  0.95 * qos[0].aggregate_goodput_rps,
              "slot scheduler lost the balanced-mix goodput plateau");
  DLSYS_CHECK(qos[2].max_min_goodput_ratio <= 3.0,
              "fair scheduling failed to bound hot-tenant goodput skew");
  DLSYS_CHECK(qos[3].max_min_goodput_ratio > qos[2].max_min_goodput_ratio,
              "FIFO control should show more skew than fair scheduling");

  FILE* out = std::fopen("BENCH_serving.json", "w");
  if (out == nullptr) {
    std::printf("cannot open BENCH_serving.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  \"frontier\": [\n",
               g_smoke ? "true" : "false");
  for (size_t i = 0; i < frontier.size(); ++i) {
    const FrontierRow& row = frontier[i];
    std::fprintf(
        out,
        "    {\"workers\": %d, \"max_batch\": %lld, \"max_delay_ms\": %.1f, "
        "\"offered_rps\": %.0f, \"sim_rps\": %.0f, \"real_rps\": %.0f, "
        "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"mean_batch\": %.2f}%s\n",
        row.workers, static_cast<long long>(row.max_batch), row.max_delay_ms,
        row.offered_rps, row.sim_rps, row.real_rps, row.p50_ms, row.p99_ms,
        row.mean_batch, i + 1 < frontier.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"shed_curve\": [\n");
  for (size_t i = 0; i < shed.size(); ++i) {
    const ShedRow& row = shed[i];
    std::fprintf(
        out,
        "    {\"load_multiplier\": %.1f, \"offered_rps\": %.0f, "
        "\"shed_fraction\": %.4f, \"deadline_miss_fraction\": %.4f, "
        "\"p99_ms\": %.4f, \"goodput_rps\": %.0f}%s\n",
        row.load_multiplier, row.offered_rps, row.shed_fraction,
        row.deadline_miss_fraction, row.p99_ms, row.goodput_rps,
        i + 1 < shed.size() ? "," : "");
  }
  std::fprintf(
      out,
      "  ],\n"
      "  \"hot_swap\": {\"offered\": %lld, \"admitted\": %lld, "
      "\"completed\": %lld, \"lost\": %lld,\n"
      "               \"served_v1\": %lld, \"served_v2\": %lld, "
      "\"p99_before_ms\": %.4f, \"p99_during_ms\": %.4f, "
      "\"p99_after_ms\": %.4f},\n",
      static_cast<long long>(swap.offered),
      static_cast<long long>(swap.admitted),
      static_cast<long long>(swap.completed),
      static_cast<long long>(swap.lost),
      static_cast<long long>(swap.served_v1),
      static_cast<long long>(swap.served_v2), swap.p99_before_ms,
      swap.p99_during_ms, swap.p99_after_ms);
  std::fprintf(out, "  \"tenant\": [\n");
  for (size_t i = 0; i < qos.size(); ++i) {
    const QosRun& run = qos[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"offered_rps\": %.0f, "
                 "\"aggregate_goodput_rps\": %.0f, "
                 "\"max_min_goodput_ratio\": %.4f, \"tenants\": [\n",
                 run.mode.c_str(), run.offered_rps, run.aggregate_goodput_rps,
                 run.max_min_goodput_ratio);
    for (size_t j = 0; j < run.tenants.size(); ++j) {
      const TenantBenchRow& row = run.tenants[j];
      std::fprintf(
          out,
          "      {\"tenant\": \"%s\", \"offered\": %lld, \"admitted\": %lld, "
          "\"shed\": %lld, \"goodput_rps\": %.0f, \"p50_ms\": %.4f, "
          "\"p99_ms\": %.4f}%s\n",
          row.tenant.c_str(), static_cast<long long>(row.offered),
          static_cast<long long>(row.admitted),
          static_cast<long long>(row.shed), row.goodput_rps, row.p50_ms,
          row.p99_ms, j + 1 < run.tenants.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < qos.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_serving.json\n");
  return 0;
}
