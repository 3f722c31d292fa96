// Observability overhead bench (E33): throughput of the E31 inference
// workload (arena-planned engine, PredictInto hot loop) with tracing
// compiled in but disabled, sampled 1-in-64, and fully enabled, against
// an identical disabled baseline (an A/A pair, so the "off" row measures
// the disabled-branch cost plus run-to-run noise). Results land in
// BENCH_obs.json.
//
// The acceptance bar is the disabled row: instrumentation compiled in
// but switched off must cost < 2% throughput. The truly-compiled-out
// comparison is a separate -DDLSYS_OBS=0 build (exercised in CI), which
// this binary also runs under — there all four rows coincide.
//
// E38 (request tracing + attribution): the same 2% bar applied to the
// fleet layer — a chaos run with request-scoped span emission, critical-
// path attribution, and burn-rate alerting enabled ("traced") against
// the identical run with tracing disabled ("untraced"). Each round runs
// one untraced reference, one traced run and a second untraced run in a
// rotating order; the overhead is the median over rounds of the traced
// run's paired difference from the reference, and the median paired
// difference of the two untraced runs is printed beside it as the A/A
// noise floor. Tracing must also be a pure observer: the traced and
// untraced FleetReportJson exports must be bitwise identical (enforced
// in every mode — the sim is deterministic, so any divergence is a bug).
//
// Pass --smoke (or set DLSYS_BENCH_SMOKE=1) for a seconds-scale CI run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/rng.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/infer/engine.h"
#include "src/nn/train.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/serve/loadgen.h"

namespace dlsys {
namespace {

bool g_smoke = false;

volatile float g_sink = 0.0f;  // defeats dead-code elimination

struct OverheadRow {
  const char* mode = "";
  double ms_per_batch = 0.0;
  double throughput_eps = 0.0;  ///< examples per second
  double overhead_pct = 0.0;    ///< vs the baseline row
  int64_t events = 0;           ///< spans drained after the timed run
};

/// One timed repetition: wall ms per call over `iters` PredictInto calls.
double OneRepMs(InferenceEngine* engine, const Tensor& x, int64_t batch,
                Tensor* out, int iters) {
  // Rewind the rings so every repetition records from the same state (a
  // full ring drops events and would make later reps cheaper).
  obs::ResetTrace();
  Stopwatch watch;
  for (int it = 0; it < iters; ++it) {
    DLSYS_CHECK(engine->PredictInto(x.data(), batch, out->data()).ok(),
                "predict failed");
    g_sink = (*out)[0];
  }
  return watch.Seconds() * 1000.0 / iters;
}

std::vector<OverheadRow> BenchOverhead() {
  Rng rng(61);
  // The E31 frontier workload: MLP engine, mid-size batch. Sized so one
  // batch is ~2 ms of kernel time — small enough to stress the per-op
  // span sites, large enough that thread-pool wakeup jitter (tens of
  // microseconds, the dominant noise at sub-ms batches) stays well
  // under the 2% bar being measured.
  Sequential net = MakeMlp(64, {g_smoke ? 64 : 512, g_smoke ? 32 : 512}, 10);
  net.Init(&rng);
  const int64_t batch = g_smoke ? 4 : 64;
  auto compiled = InferenceEngine::Compile(
      net, {64}, EngineConfig{batch});
  DLSYS_CHECK(compiled.ok(), "compile failed");
  InferenceEngine engine = std::move(compiled).value();

  Tensor x({batch, 64});
  x.FillGaussian(&rng, 1.0f);
  Tensor out({batch, engine.output_elems_per_example()});

  const int iters = g_smoke ? 20 : 25;
  const int reps = g_smoke ? 3 : 96;

  // Warm up the thread pool, caches, and clocks for a full measurement
  // interval so the first timed repetition is not penalized.
  for (int it = 0; it < iters; ++it) {
    DLSYS_CHECK(engine.PredictInto(x.data(), batch, out.data()).ok(), "warm");
    g_sink = out[0];
  }

  struct Mode {
    const char* name;
    bool enabled;
    int32_t sample_every;
  };
  constexpr int kModes = 4;
  const Mode modes[kModes] = {
      {"baseline", false, 1},  // A side of the A/A pair
      {"off", false, 1},       // B side: disabled-branch cost + noise
      {"sampled_64", true, 64},
      {"full", true, 1},
  };

  // Many short repetitions, interleaved round-robin with the mode order
  // rotated every cycle, so slow system phases (frequency scaling,
  // co-tenant noise) hit every mode and every cycle position equally.
  // Each mode's cost is then the minimum over repetitions: timing noise
  // on a fixed workload is one-sided (preemption and frequency dips only
  // ever add time), so the min over many short windows is the tightest
  // estimate of the true cost and is robust to drift across the run.
  std::vector<double> times[kModes];
  int64_t events[kModes] = {};
  for (int r = 0; r < reps; ++r) {
    for (int slot = 0; slot < kModes; ++slot) {
      const int m = (slot + r) % kModes;
      obs::SetTracingEnabled(modes[m].enabled);
      obs::SetTraceSampling(modes[m].sample_every);
      times[m].push_back(OneRepMs(&engine, x, batch, &out, iters));
      events[m] = static_cast<int64_t>(obs::DrainTrace().events.size());
    }
  }
  obs::SetTracingEnabled(false);
  obs::SetTraceSampling(1);
  obs::ResetTrace();

  std::vector<OverheadRow> rows;
  for (int m = 0; m < kModes; ++m) {
    OverheadRow row;
    row.mode = modes[m].name;
    row.ms_per_batch = *std::min_element(times[m].begin(), times[m].end());
    row.throughput_eps =
        static_cast<double>(batch) / (row.ms_per_batch / 1000.0);
    row.events = events[m];
    rows.push_back(row);
  }

  const double base = rows[0].ms_per_batch;
  for (OverheadRow& row : rows) {
    row.overhead_pct = 100.0 * (row.ms_per_batch - base) / base;
  }
  return rows;
}

// ------------------------------------------------ E38: fleet tracing

struct FleetTracingResult {
  int rounds = 0;
  double untraced_ms = 0.0;  ///< median wall ms of the reference runs
  double traced_ms = 0.0;    ///< median wall ms of the traced runs
  double overhead_pct = 0.0;  ///< median paired traced-vs-reference diff
  double aa_noise_pct = 0.0;  ///< median paired untraced-vs-reference diff
  double aa_max_pct = 0.0;    ///< largest |A/A| paired diff
  int64_t sim_events = 0;    ///< request spans on the sim track (traced)
  bool reports_equal = false;  ///< traced vs untraced FleetReportJson
};

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One full chaos run, returning the wall time of Fleet::Run only (the
/// build/deploy cost is identical in both modes and excluded).
double OneFleetRunMs(const FleetConfig& config, const ChaosScenario& scenario,
                     const TraceLoadConfig& load, bool traced,
                     std::string* json, int64_t* sim_events) {
  obs::ResetTrace();
  obs::SetTracingEnabled(traced);
  auto fleet = Fleet::Create(config);
  DLSYS_CHECK(fleet.ok(), "fleet create failed");
  Rng rng(3);
  // Full runs use a model heavy enough that real batch execution — not
  // span bookkeeping — dominates the wall clock, mirroring how the <2%
  // bar is measured in E33: the cost being amortized is per-request, so
  // a toy model would measure the ring write, not the overhead ratio a
  // real deployment sees.
  Sequential net =
      MakeMlp(16, {g_smoke ? 24 : 1024, g_smoke ? 24 : 1024}, 4);
  net.Init(&rng);
  DLSYS_CHECK(fleet.value()->Deploy("m", std::move(net), {16}).ok(),
              "deploy failed");
  Stopwatch watch;
  auto report = fleet.value()->Run(scenario, load);
  const double ms = watch.Seconds() * 1000.0;
  DLSYS_CHECK(report.ok(), "fleet run failed");
  *json = FleetReportJson(report.value());
  obs::SetTracingEnabled(false);
  if (traced && sim_events != nullptr) {
    *sim_events = static_cast<int64_t>(
        obs::SimTrackOnly(obs::DrainTrace()).events.size());
  }
  obs::ResetTrace();
  return ms;
}

FleetTracingResult BenchFleetTracing() {
  FleetConfig config;
  config.replica_slots = 4;
  config.initial_replicas = 4;
  config.server.workers = 2;
  config.server.queue_capacity = 64;
  config.server.batch.max_batch = 8;
  config.server.batch.max_delay_ms = 1.0;
  config.server.cost.fixed_ms = 1.0;
  config.server.cost.per_example_ms = 0.25;
  config.server.default_deadline_ms = 50.0;
  config.autoscale.policy = ScalePolicy::kFixed;
  config.tick_ms = 50.0;
  config.window_ms = 500.0;
  config.slo.slo_latency_ms = 8.0;  // the alerter has work to do

  const double scale = g_smoke ? 0.25 : 0.5;
  auto scenario = MakeScenario("gray_failure", scale);
  DLSYS_CHECK(scenario.ok(), "scenario failed");
  TraceLoadConfig load;
  load.seed = 7;
  load.duration_ms = g_smoke ? 4000.0 : 12'000.0;
  load.base_rps = g_smoke ? 300.0 : 600.0;
  load.deadline_ms = 50.0;
  load.model = "m";

  FleetTracingResult result;
  result.rounds = g_smoke ? 2 : 15;
  std::string json_untraced, json_traced;
  std::vector<double> reference_ms, traced_ms, overhead, aa;
  for (int r = 0; r < result.rounds; ++r) {
    // Run 0 is the untraced reference, run 1 traced, run 2 the untraced
    // A/A partner; the starting run rotates so no run always goes first.
    double ms[3] = {0.0, 0.0, 0.0};
    for (int slot = 0; slot < 3; ++slot) {
      const int run = (slot + r) % 3;
      const bool traced = run == 1;
      std::string json;
      ms[run] = OneFleetRunMs(config, scenario.value(), load, traced, &json,
                              &result.sim_events);
      (traced ? json_traced : json_untraced) = json;
    }
    reference_ms.push_back(ms[0]);
    traced_ms.push_back(ms[1]);
    overhead.push_back(100.0 * (ms[1] - ms[0]) / ms[0]);
    aa.push_back(100.0 * (ms[2] - ms[0]) / ms[0]);
    result.aa_max_pct = std::max(result.aa_max_pct, std::abs(aa.back()));
  }
  result.untraced_ms = MedianOf(reference_ms);
  result.traced_ms = MedianOf(traced_ms);
  result.overhead_pct = MedianOf(overhead);
  result.aa_noise_pct = MedianOf(aa);
  result.reports_equal =
      !json_traced.empty() && json_traced == json_untraced;
  return result;
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
  RuntimeConfig::SetThreads(4);

  const std::vector<OverheadRow> rows = BenchOverhead();
  for (const OverheadRow& row : rows) {
    std::printf(
        "obs %-10s  %8.4f ms/batch | %10.0f ex/s | overhead %+6.2f%% | "
        "%lld events\n",
        row.mode, row.ms_per_batch, row.throughput_eps, row.overhead_pct,
        static_cast<long long>(row.events));
  }

  const FleetTracingResult fleet = BenchFleetTracing();
  std::printf(
      "e38 fleet     untraced %8.1f ms | traced %8.1f ms | overhead "
      "%+6.2f%% (median of %d paired rounds) | A/A noise floor %+6.2f%% "
      "(max |A/A| %.2f%%) | %lld sim events | reports %s\n",
      fleet.untraced_ms, fleet.traced_ms, fleet.overhead_pct, fleet.rounds,
      fleet.aa_noise_pct, fleet.aa_max_pct,
      static_cast<long long>(fleet.sim_events),
      fleet.reports_equal ? "bitwise-equal" : "DIVERGED");

  FILE* out = std::fopen("BENCH_obs.json", "w");
  if (out == nullptr) {
    std::printf("cannot open BENCH_obs.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  \"obs_compiled_in\": %s,\n"
               "  \"overhead\": [\n",
               g_smoke ? "true" : "false", DLSYS_OBS ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const OverheadRow& row = rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"ms_per_batch\": %.4f, "
                 "\"throughput_eps\": %.0f, \"overhead_pct\": %.2f, "
                 "\"events\": %lld}%s\n",
                 row.mode, row.ms_per_batch, row.throughput_eps,
                 row.overhead_pct, static_cast<long long>(row.events),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"fleet_tracing\": {\"rounds\": %d, "
               "\"untraced_ms\": %.1f, \"traced_ms\": %.1f, "
               "\"overhead_pct\": %.2f, \"aa_noise_pct\": %.2f, "
               "\"aa_max_pct\": %.2f, \"sim_events\": %lld, "
               "\"reports_bitwise_equal\": %s}\n}\n",
               fleet.rounds, fleet.untraced_ms, fleet.traced_ms,
               fleet.overhead_pct, fleet.aa_noise_pct, fleet.aa_max_pct,
               static_cast<long long>(fleet.sim_events),
               fleet.reports_equal ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_obs.json\n");

  // The acceptance bar: tracing compiled in but disabled must stay
  // within 2% of the baseline on the same workload. Smoke runs are too
  // short to separate the branch cost from scheduler noise, so the bar
  // is only enforced on full runs.
  if (!g_smoke && rows[1].overhead_pct >= 2.0) {
    std::printf("FAIL: disabled-tracing overhead %.2f%% >= 2%%\n",
                rows[1].overhead_pct);
    return 1;
  }
  // E38: request tracing + attribution + alerting must never perturb the
  // simulated results, and on full runs must cost < 2% wall time in the
  // median paired round.
  if (!fleet.reports_equal) {
    std::printf("FAIL: traced fleet report diverged from untraced\n");
    return 1;
  }
  if (!g_smoke && fleet.overhead_pct >= 2.0) {
    std::printf("FAIL: fleet tracing overhead %.2f%% >= 2%%\n",
                fleet.overhead_pct);
    return 1;
  }
  return 0;
}
