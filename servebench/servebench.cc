// servebench: drives the dlsys serving stack — simd kernel tables, the
// infer engine, the serve server and the fleet layer — from outside,
// through public calls only, on one named workload per invocation.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out <dir>]
//
// Every input (arrival trace, payloads, tenant assignment, model weights)
// is generated from --seed before any timer starts. With --trace 0 the run
// measures the end-to-end metrics with tracing off; with --trace 1 it
// measures the per-layer metrics (per-call timers, direct engine and
// kernel probes, and a traced replay whose self-time table is written
// next to a Chrome trace in --out). Either way it checks outputs, the
// per-phase accounting and the replay digest, prints every metric by name
// with its unit, and ends with the request counts; run.py turns that output
// into the JSON result. A failed check exits with status 3 before the
// counts are printed. README.md documents the workloads and metrics.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/compress/quantization.h"
#include "src/core/rng.h"
#include "src/fleet/chaos.h"
#include "src/fleet/fleet.h"
#include "src/infer/engine.h"
#include "src/nn/sequential.h"
#include "src/nn/train.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/simd/dispatch.h"

namespace {

using namespace dlsys;
using Clock = std::chrono::steady_clock;

constexpr const char* kModel = "m";

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "servebench: CHECK FAILED: %s\n", what.c_str());
  std::exit(3);
}

void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

template <typename T>
T Value(Result<T> r, const char* what) {
  Check(r.ok(), std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// Linear-interpolated quantile of \p v (exact, from raw samples).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Steal and total jiffies of the whole machine from /proc/stat: the time
/// the hypervisor ran something else while this VM's CPUs wanted to run.
/// Zeros when unavailable.
std::pair<double, double> CpuStealAndTotal() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

/// FNV-1a over the raw bytes of the values added.
class Digest {
 public:
  template <typename T>
  void Add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 1099511628211ull;
  }
  void AddString(const std::string& s) {
    for (unsigned char b : s) h_ = (h_ ^ b) * 1099511628211ull;
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every metric the run measured, printed by name with its unit. run.py
/// builds the JSON result from the ones BENCHMARK.json lists.
struct Metrics {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer.push_back({name, value, unit});
  }
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    Check(i + 1 < argc, "missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      Check(v == "0" || v == "1", "--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  Check(have_workload, "--workload is required");
  Check(a.seconds >= 1.0 && a.seconds <= 120.0, "--seconds must be in [1, 120]");
  return a;
}

// ---------------------------------------------------- environment stamp

void PrintStamp(const Args& args) {
  const char* threads = std::getenv("DLSYS_THREADS");
  const char* commit = std::getenv("SERVEBENCH_COMMIT");
  const char* source = std::getenv("SERVEBENCH_SOURCE_SHA256");
  const std::string build_type = SERVEBENCH_BUILD_TYPE;
  std::printf(
      "stamp {\"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"isa\": %s, \"nproc\": %ld, "
      "\"DLSYS_THREADS\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"DLSYS_OBS\": %s, \"DLSYS_SIMD\": %s, \"commit\": %s, "
      "\"source_sha256\": %s}\n",
      JsonString(args.workload).c_str(), args.seed,
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      JsonString(simd::IsaName(simd::ActiveIsa())).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(threads != nullptr ? threads : "(unset)").c_str(),
      JsonString("g++ " __VERSION__).c_str(), JsonString(build_type).c_str(),
      JsonString(SERVEBENCH_OBS).c_str(), JsonString(SERVEBENCH_SIMD).c_str(),
      JsonString(commit != nullptr ? commit : "unknown").c_str(),
      JsonString(source != nullptr ? source : "unknown").c_str());
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "\n*** servebench WARNING: build type is '%s', not Release. "
                 "Timings from this build are not comparable. ***\n\n",
                 build_type.c_str());
  }
}

// ------------------------------------------------------------- inputs

Sequential MakeNet(int64_t in, const std::vector<int64_t>& hidden,
                   int64_t out, uint64_t seed) {
  Sequential net = MakeMlp(in, hidden, out);
  Rng rng(seed);
  net.Init(&rng);
  return net;
}

/// A pre-generated open-loop request stream: arrival offsets (ms from the
/// phase start), flat payloads and tenant ids.
struct Trace {
  int64_t in_elems = 0;
  std::vector<double> at_ms;
  std::vector<float> payload;       ///< at_ms.size() * in_elems
  std::vector<std::string> tenant;  ///< empty: untenanted
  int64_t size() const { return static_cast<int64_t>(at_ms.size()); }
  const float* x(int64_t i) const {
    return payload.data() + i * in_elems;
  }
  const std::string& tenant_of(int64_t i) const {
    static const std::string none;
    return tenant.empty() ? none : tenant[static_cast<size_t>(i)];
  }
};

/// Seeded Poisson arrivals at \p rate_rps: \p n requests, or (n < 0) as
/// many as fall inside \p duration_ms.
Trace MakeTrace(uint64_t seed, int64_t n, double duration_ms, double rate_rps,
                int64_t in_elems, const std::vector<TenantShare>& mix) {
  Trace tr;
  tr.in_elems = in_elems;
  Rng root(seed);
  Rng gaps = root.Fork();
  Rng values = root.Fork();
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - gaps.Uniform()) / rate_rps * 1000.0;
    if (n >= 0 ? tr.size() >= n : t > duration_ms) break;
    tr.at_ms.push_back(t);
  }
  tr.payload.resize(static_cast<size_t>(tr.size() * in_elems));
  for (float& v : tr.payload) v = static_cast<float>(values.Gaussian());
  if (!mix.empty()) tr.tenant = AssignTenants(mix, seed ^ 0x7e7a, tr.size());
  return tr;
}

const char* NumericName(EngineNumeric n) {
  switch (n) {
    case EngineNumeric::kFp32:
      return "fp32";
    case EngineNumeric::kInt8:
      return "int8";
    case EngineNumeric::kInt4:
      return "int4";
  }
  return "?";
}

// ------------------------------------------------------ server workloads

/// One Publish of a replay: network index and numeric.
struct Version {
  int net = 0;
  EngineNumeric numeric = EngineNumeric::kFp32;
};

struct ServerSpec {
  int64_t in_elems = 0;
  std::vector<int64_t> hidden;
  int64_t out_elems = 10;
  ServerConfig config;
  double deadline_ms = 0.0;
  double replay_rate_rps = 0.0;
  int64_t replay_requests = 0;
  double paced_rate_rps = 0.0;
  /// Wall ms of one cycle (set-up, replay, paced phase) on the 4-vCPU
  /// reference host. It fixes the number of cycles a run makes, so that
  /// best-of-cycles metrics compare the same number of cycles in every run.
  double nominal_cycle_ms = 0.0;
  std::vector<TenantShare> mix;
  /// versions[0] is published at set-up; versions[k] replaces it when the
  /// replay reaches request k * n / versions.size() (a hot swap).
  std::vector<Version> versions = {{}};
};

/// Length of one cycle's paced phase, every workload.
constexpr double kPacedCycleMs = 1500.0;

/// Seed of cycle \p cycle's paced trace: each cycle offers a fresh Poisson
/// realization, so a run's paced metrics average over arrival patterns.
uint64_t PacedSeed(uint64_t seed, int cycle) {
  return (seed ^ 0x9ace) + 0x10000ull * static_cast<uint64_t>(cycle);
}

double DeclaredCapacityRps(const ServerConfig& c) {
  return c.workers * static_cast<double>(c.batch.max_batch) * 1000.0 /
         EstimateServiceMs(c.cost, c.batch.max_batch);
}

/// tenant-frontdoor: a tiny model behind the slot scheduler with DWFQ and
/// per-tenant quotas, offered a hot-tenant mix at 1.4x declared capacity.
ServerSpec FrontdoorSpec() {
  ServerSpec s;
  s.in_elems = 32;
  s.hidden = {128};
  ServerConfig& c = s.config;
  c.workers = 4;
  c.batch.max_batch = 8;
  c.batch.max_delay_ms = 0.2;
  c.queue_capacity = 64;
  c.scheduler.use_slots = true;
  c.scheduler.fair_queueing = true;
  c.scheduler.enforce_quotas = true;
  c.scheduler.default_policy.rate_rps = 0.25 * DeclaredCapacityRps(c);
  c.scheduler.default_policy.burst = 8.0;
  // Five full-batch steps: overload sheds at admission, not in the queue.
  s.deadline_ms = 5.0 * EstimateServiceMs(c.cost, c.batch.max_batch);
  c.default_deadline_ms = s.deadline_ms;
  s.replay_rate_rps = 1.4 * DeclaredCapacityRps(c);
  s.replay_requests = 120'000;
  s.paced_rate_rps = 60'000.0;
  s.nominal_cycle_ms = 2'200.0;
  s.mix = HotTenantMix(4, 8.0);
  return s;
}

/// wide-mlp-swap: a wide MLP on the legacy FIFO path, hot-swapped each
/// quarter fp32 -> int8 -> int4 -> fp32 while serving.
ServerSpec WideSpec() {
  ServerSpec s;
  s.in_elems = 256;
  s.hidden = {1024, 1024};
  ServerConfig& c = s.config;
  c.workers = 4;
  c.batch.max_batch = 32;
  c.batch.max_delay_ms = 1.0;
  c.queue_capacity = 128;
  // Declared once, near the measured batch time; never calibrated per run.
  c.cost.fixed_ms = 0.5;
  c.cost.per_example_ms = 0.2;
  // Offered above declared capacity with a two-batch deadline: the excess
  // sheds at admission, so the failed fraction is set by the overload
  // rather than by Poisson bursts and stays steady across seeds.
  s.deadline_ms = 2.0 * EstimateServiceMs(c.cost, c.batch.max_batch);
  c.default_deadline_ms = s.deadline_ms;
  s.replay_rate_rps = 1.3 * DeclaredCapacityRps(c);
  s.replay_requests = 8'000;
  s.paced_rate_rps = 1'000.0;
  s.nominal_cycle_ms = 3'300.0;
  s.versions = {{0, EngineNumeric::kFp32},
                {1, EngineNumeric::kInt8},
                {2, EngineNumeric::kInt4},
                {3, EngineNumeric::kFp32}};
  return s;
}

std::vector<Sequential> MakeNets(const ServerSpec& s, uint64_t seed) {
  int count = 0;
  for (const Version& v : s.versions) count = std::max(count, v.net + 1);
  std::vector<Sequential> nets;
  for (int k = 0; k < count; ++k) {
    nets.push_back(MakeNet(s.in_elems, s.hidden, s.out_elems,
                           seed * 1000003ull + static_cast<uint64_t>(k)));
  }
  return nets;
}

EngineConfig EngineFor(const ServerConfig& c, EngineNumeric numeric) {
  EngineConfig ec(c.batch.max_batch);
  ec.numeric = numeric;
  return ec;
}

/// A server under test with its registry and set-up timings.
struct Sut {
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<Server> server;
  double create_ms = 0.0;
  double publish_ms = 0.0;
};

/// Server::Create plus the first Publish: the set-up a user pays before
/// the first Submit.
Sut MakeSut(const ServerSpec& s, const std::vector<Sequential>& nets) {
  Sut sut;
  sut.registry = std::make_unique<ModelRegistry>();
  const Clock::time_point t0 = Clock::now();
  sut.server = Value(Server::Create(sut.registry.get(), s.config), "create");
  sut.create_ms = MsSince(t0);
  const Clock::time_point t1 = Clock::now();
  const Version& v = s.versions.front();
  const int64_t version =
      Value(sut.server->Publish(kModel, nets[static_cast<size_t>(v.net)],
                                {s.in_elems}, EngineFor(s.config, v.numeric)),
            "publish");
  sut.publish_ms = MsSince(t1);
  Check(version == 1, "first publish must be version 1");
  return sut;
}

/// Per-call wall timers of the serve layer (trace-1 runs only).
struct CallTimers {
  std::vector<double> submit_us_admitted;
  std::vector<double> submit_us_shed;
  double advance_ms = 0.0;  ///< AdvanceTo + Drain
  std::vector<double> batches_per_wave;
  std::vector<double> batch_ms;  ///< measured_service_ms per batch
  size_t seen = 0;               ///< completions already harvested

  /// Folds the completions a call just produced into per-wave stats.
  void Harvest(const Server& server) {
    const auto& done = server.completions();
    if (done.size() == seen) return;
    std::vector<std::pair<int, double>> batches;
    for (size_t i = seen; i < done.size(); ++i) {
      const std::pair<int, double> key{done[i].worker, done[i].dispatch_ms};
      if (std::find(batches.begin(), batches.end(), key) == batches.end()) {
        batches.push_back(key);
        batch_ms.push_back(done[i].measured_service_ms);
      }
    }
    batches_per_wave.push_back(static_cast<double>(batches.size()));
    seen = done.size();
  }
};

/// Requests of one phase by fate.
struct Accounting {
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed_queue_full = 0;
  int64_t shed_deadline = 0;
  int64_t shed_draining = 0;
  int64_t shed_no_model = 0;
  int64_t completed = 0;  ///< finished within the deadline
  int64_t missed = 0;     ///< finished late
  int64_t lost = 0;       ///< admitted, never finished

  int64_t shed() const {
    return shed_queue_full + shed_deadline + shed_draining + shed_no_model;
  }
  void Count(Server::Outcome o) {
    ++offered;
    switch (o) {
      case Server::Outcome::kAdmitted:
        ++admitted;
        break;
      case Server::Outcome::kShedQueueFull:
        ++shed_queue_full;
        break;
      case Server::Outcome::kShedDeadline:
        ++shed_deadline;
        break;
      case Server::Outcome::kShedDraining:
        ++shed_draining;
        break;
      case Server::Outcome::kNoSuchModel:
        ++shed_no_model;
        break;
    }
  }
  /// offered = admitted + shed and admitted = completed + missed + lost.
  void CheckConservation(const std::string& phase) const {
    Check(offered == admitted + shed(),
          phase + ": offered != admitted + shed");
    Check(admitted == completed + missed + lost,
          phase + ": admitted != completed + missed + lost");
  }
  void Print(const std::string& phase) const {
    std::printf(
        "phase %-22s offered=%" PRId64 " admitted=%" PRId64
        " completed=%" PRId64 " missed=%" PRId64 " lost=%" PRId64
        " shed.queue_full=%" PRId64 " shed.deadline=%" PRId64
        " shed.draining=%" PRId64 " shed.no_model=%" PRId64 "\n",
        phase.c_str(), offered, admitted, completed, missed, lost,
        shed_queue_full, shed_deadline, shed_draining, shed_no_model);
  }
};

/// Distinct batches among completions [begin, end): a worker starts at
/// most one batch at a simulated instant.
int64_t CountBatches(const std::vector<Server::Completion>& done,
                     size_t begin, size_t end) {
  std::vector<std::pair<int, double>> keys;
  for (size_t k = begin; k < end; ++k) {
    keys.emplace_back(done[k].worker, done[k].dispatch_ms);
  }
  std::sort(keys.begin(), keys.end());
  return std::unique(keys.begin(), keys.end()) - keys.begin();
}

/// Requests per timed replay segment.
constexpr int64_t kSegment = 64;

struct Swap {
  int64_t at_request = 0;  ///< first request that may bind the new version
  int64_t version = 0;
  double publish_ms = 0.0;
};

struct ReplayResult {
  double wall_ms = 0.0;
  /// Wall ms of each run of kSegment requests (the last one ends with the
  /// final Drain), pauses excluded.
  std::vector<double> segment_ms;
  Accounting acct;
  std::vector<int64_t> id_of;  ///< request index -> server id
  size_t completions_end = 0;  ///< completions()[0, end) are the replay's
  std::vector<Swap> swaps;
  std::string digest;
  double sim_goodput_rps = 0.0;
  double sim_p99_ms = 0.0;
  double sim_mean_batch = 0.0;
};

/// Replays \p tr as fast as the server accepts it: before each request the
/// sim clock advances to its arrival, then it is submitted; publishes land
/// at the quarter marks; a final Drain finishes everything. Timed as a
/// whole, including the publishes (the write path beside reads). With
/// \p timers each call is timed; with \p pause, it runs every 1024
/// requests outside the timed wall.
ReplayResult Replay(Sut* sut, const ServerSpec& s,
                    const std::vector<Sequential>& nets, const Trace& tr,
                    CallTimers* timers,
                    const std::function<void()>* pause = nullptr) {
  Server& srv = *sut->server;
  const int64_t n = tr.size();
  const int64_t nv = static_cast<int64_t>(s.versions.size());
  ReplayResult r;
  r.id_of.assign(static_cast<size_t>(n), -1);
  std::vector<Server::Outcome> outcome(static_cast<size_t>(n));
  Tensor example({s.in_elems});
  const size_t bytes = static_cast<size_t>(s.in_elems) * sizeof(float);
  int64_t next_swap = 1;
  double paused_ms = 0.0;
  double segment_start = 0.0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    if (next_swap < nv && i == next_swap * n / nv) {
      const Version& v = s.versions[static_cast<size_t>(next_swap)];
      obs::TraceSpan span("bench.publish", "bench.serve");
      const Clock::time_point p0 = Clock::now();
      const int64_t version = Value(
          srv.Publish(kModel, nets[static_cast<size_t>(v.net)], {s.in_elems},
                      EngineFor(s.config, v.numeric)),
          "hot-swap publish");
      r.swaps.push_back({i, version, MsSince(p0)});
      ++next_swap;
    }
    std::memcpy(example.data(), tr.x(i), bytes);
    const double t = tr.at_ms[static_cast<size_t>(i)];
    // The spans cost one relaxed load each while tracing is off.
    Server::SubmitResult sr;
    Clock::time_point c0;
    if (timers != nullptr) c0 = Clock::now();
    {
      obs::TraceSpan span("bench.advance_to", "bench.serve");
      srv.AdvanceTo(t);
    }
    if (timers != nullptr) {
      timers->advance_ms += MsSince(c0);
      timers->Harvest(srv);
      c0 = Clock::now();
    }
    {
      obs::TraceSpan span("bench.submit", "bench.serve");
      sr = srv.Submit(kModel, example, t, s.deadline_ms, tr.tenant_of(i));
    }
    if (timers != nullptr) {
      const double us = MsSince(c0) * 1000.0;
      (sr.outcome == Server::Outcome::kAdmitted ? timers->submit_us_admitted
                                                : timers->submit_us_shed)
          .push_back(us);
      timers->Harvest(srv);
    }
    if ((i + 1) % kSegment == 0 && i + 1 < n) {
      const double at = MsSince(start) - paused_ms;
      r.segment_ms.push_back(at - segment_start);
      segment_start = at;
    }
    if (pause != nullptr && (i + 1) % 1024 == 0) {
      // Between calls no span is open and the worker pool is idle, so the
      // caller may drain the trace rings; that time is not the stack's.
      const Clock::time_point p0 = Clock::now();
      (*pause)();
      paused_ms += MsSince(p0);
    }
    outcome[static_cast<size_t>(i)] = sr.outcome;
    r.id_of[static_cast<size_t>(i)] = sr.id;
  }
  {
    const Clock::time_point c0 = Clock::now();
    {
      obs::TraceSpan span("bench.drain", "bench.serve");
      srv.Drain();
    }
    if (timers != nullptr) {
      timers->advance_ms += MsSince(c0);
      timers->Harvest(srv);
    }
  }
  r.wall_ms = MsSince(start) - paused_ms;
  r.segment_ms.push_back(r.wall_ms - segment_start);

  // ---- untimed: accounting, digest and the simulated replay invariants.
  const auto& done = srv.completions();
  r.completions_end = done.size();
  for (int64_t i = 0; i < n; ++i) r.acct.Count(outcome[static_cast<size_t>(i)]);
  Digest d;
  std::vector<double> lat;
  lat.reserve(done.size());
  double first = tr.at_ms.front(), last = 0.0;
  for (const Server::Completion& c : done) {
    d.Add(c.id);
    d.Add(c.version);
    d.Add(c.worker);
    d.Add(c.dispatch_ms);
    d.Add(c.finish_ms);
    d.Add(c.deadline_missed);
    (c.deadline_missed ? r.acct.missed : r.acct.completed) += 1;
    lat.push_back(c.finish_ms - c.arrival_ms);
    last = std::max(last, c.finish_ms);
  }
  const int64_t batches = CountBatches(done, 0, done.size());
  for (int64_t i = 0; i < n; ++i) {
    d.Add(r.id_of[static_cast<size_t>(i)]);
    d.Add(static_cast<int>(outcome[static_cast<size_t>(i)]));
  }
  r.acct.lost = r.acct.admitted - static_cast<int64_t>(done.size());
  r.digest = d.Hex();
  r.sim_goodput_rps =
      static_cast<double>(r.acct.completed) / ((last - first) / 1000.0);
  r.sim_p99_ms = Quantile(std::move(lat), 0.99);
  r.sim_mean_batch = batches > 0 ? static_cast<double>(done.size()) /
                                       static_cast<double>(batches)
                                 : 0.0;

  // The server's own tallies must agree with the caller's.
  int64_t offered = 0, admitted = 0, completed = 0, missed = 0;
  for (const auto& [name, ts] : srv.tenant_stats()) {
    offered += ts.offered;
    admitted += ts.admitted;
    completed += ts.completed;
    missed += ts.deadline_missed;
  }
  Check(offered == r.acct.offered && admitted == r.acct.admitted,
        "server tenant tallies disagree with submit verdicts");
  Check(completed == static_cast<int64_t>(done.size()) &&
            missed == r.acct.missed,
        "server tenant tallies disagree with completions");
  return r;
}

struct PacedResult {
  Accounting acct;
  std::vector<double> latency_ms;  ///< due -> completion visible, wall
  std::vector<double> lag_ms;      ///< due -> submit issued, wall
  double wall_ms = 0.0;
  size_t completions_begin = 0;
  size_t completions_end = 0;
  std::vector<int64_t> id_of;
  int64_t batches = 0;  ///< distinct (worker, dispatch_ms)
  /// Per paced phase (cycle) pooled here: its p50, p99 and sample count.
  std::vector<double> cycle_p50, cycle_p99;
  size_t min_cycle_samples = 0;
};

/// Drives \p sut in real time: sim ms = wall ms since the phase started.
/// Each request is submitted once its due instant has passed (at the sim
/// time it was due), the clock is advanced to "now" in between, and a
/// request's latency runs from its due instant to the return of the call
/// that made its Completion visible.
PacedResult Paced(Sut* sut, const ServerSpec& s, const Trace& tr,
                  CallTimers* timers) {
  Server& srv = *sut->server;
  PacedResult p;
  const int64_t n = tr.size();
  p.id_of.assign(static_cast<size_t>(n), -1);
  std::vector<double> due_by_id(static_cast<size_t>(n), 0.0);
  p.latency_ms.reserve(static_cast<size_t>(n));
  p.lag_ms.reserve(static_cast<size_t>(n));
  Tensor example({s.in_elems});
  const size_t bytes = static_cast<size_t>(s.in_elems) * sizeof(float);
  const double sim0 = srv.clock_ms();
  const auto& done = srv.completions();
  p.completions_begin = done.size();
  size_t seen = done.size();
  if (timers != nullptr) timers->seen = seen;
  int64_t id0 = -1;
  int64_t i = 0;
  int64_t finished = 0;
  const Clock::time_point start = Clock::now();
  while (true) {
    const double now = MsSince(start);
    if (i < n && tr.at_ms[static_cast<size_t>(i)] <= now) {
      const double due = tr.at_ms[static_cast<size_t>(i)];
      p.lag_ms.push_back(now - due);
      std::memcpy(example.data(), tr.x(i), bytes);
      const Clock::time_point c0 = Clock::now();
      const Server::SubmitResult sr =
          srv.Submit(kModel, example, sim0 + due, s.deadline_ms,
                     tr.tenant_of(i));
      if (timers != nullptr) {
        (sr.outcome == Server::Outcome::kAdmitted
             ? timers->submit_us_admitted
             : timers->submit_us_shed)
            .push_back(MsSince(c0) * 1000.0);
        timers->Harvest(srv);
      }
      if (id0 < 0) id0 = sr.id;
      Check(sr.id == id0 + i, "server ids must be sequential");
      due_by_id[static_cast<size_t>(i)] = due;
      p.id_of[static_cast<size_t>(i)] = sr.id;
      p.acct.Count(sr.outcome);
      ++i;
    } else {
      if (i >= n && finished == p.acct.admitted) break;
      const double next = srv.NextActionableMs();
      if (next < 0.0) {
        if (i >= n) break;  // nothing queued and nothing left to send
        continue;
      }
      const double target = sim0 + now;
      if (next > target || target <= srv.clock_ms()) continue;
      const Clock::time_point c0 = Clock::now();
      srv.AdvanceTo(target);
      if (timers != nullptr) {
        timers->advance_ms += MsSince(c0);
        timers->Harvest(srv);
      }
    }
    if (done.size() > seen) {
      const double visible = MsSince(start);
      for (size_t k = seen; k < done.size(); ++k) {
        const Server::Completion& c = done[k];
        p.latency_ms.push_back(visible -
                               due_by_id[static_cast<size_t>(c.id - id0)]);
        (c.deadline_missed ? p.acct.missed : p.acct.completed) += 1;
      }
      finished += static_cast<int64_t>(done.size() - seen);
      seen = done.size();
    }
  }
  p.wall_ms = MsSince(start);
  p.completions_end = done.size();
  p.acct.lost = p.acct.admitted - finished;
  p.batches = CountBatches(done, p.completions_begin, p.completions_end);
  return p;
}

/// Bit-compares a seeded sample of the outputs in completions [begin, end)
/// — plus, with \p near_swaps, every request within 64 of a hot swap —
/// against an independently compiled
/// engine of the version each request bound, one request at a time; fp32
/// versions are also compared against Sequential::Forward. Returns the
/// number of requests checked.
int64_t CheckOutputs(const Server& srv, const ServerSpec& s,
                     std::vector<Sequential>* nets, const Trace& tr,
                     const std::vector<int64_t>& id_of,
                     const std::vector<Swap>& swaps, bool near_swaps,
                     size_t begin, size_t end, uint64_t seed) {
  // version -> the Version it was published from (1-based, publish order).
  std::map<int64_t, Version> by_version;
  by_version[1] = s.versions.front();
  for (size_t k = 0; k < swaps.size(); ++k) {
    by_version[swaps[k].version] = s.versions[k + 1];
  }
  std::map<int64_t, int64_t> index_of_id;
  for (size_t i = 0; i < id_of.size(); ++i) {
    if (id_of[i] >= 0) index_of_id[id_of[i]] = static_cast<int64_t>(i);
  }
  std::vector<size_t> picks;
  Rng rng(seed ^ 0xc4ec);
  for (int k = 0; k < 256 && end > begin; ++k) {
    picks.push_back(begin + rng.Index(end - begin));
  }
  for (size_t k = begin; near_swaps && k < end; ++k) {
    const int64_t idx = index_of_id.count(srv.completions()[k].id)
                            ? index_of_id[srv.completions()[k].id]
                            : -1;
    for (const Swap& sw : swaps) {
      if (idx >= sw.at_request - 64 && idx < sw.at_request + 64) {
        picks.push_back(k);
        break;
      }
    }
  }
  std::map<int64_t, InferenceEngine> engines;
  std::vector<float> out(static_cast<size_t>(s.out_elems));
  int64_t checked = 0;
  for (size_t k : picks) {
    const Server::Completion& c = srv.completions()[k];
    Check(by_version.count(c.version) == 1, "completion of unknown version");
    const Version& v = by_version[c.version];
    auto it = engines.find(c.version);
    if (it == engines.end()) {
      EngineConfig ec(1);
      ec.numeric = v.numeric;
      it = engines
               .emplace(c.version,
                        Value(InferenceEngine::Compile(
                                  (*nets)[static_cast<size_t>(v.net)],
                                  {s.in_elems}, ec),
                              "reference compile"))
               .first;
    }
    Check(index_of_id.count(c.id) == 1, "completion of unknown request");
    const float* x = tr.x(index_of_id[c.id]);
    Check(it->second.PredictInto(x, 1, out.data()).ok(), "reference predict");
    Check(c.output.size() == s.out_elems &&
              std::memcmp(out.data(), c.output.data(),
                          out.size() * sizeof(float)) == 0,
          "output of request " + std::to_string(c.id) + " (version " +
              std::to_string(c.version) +
              ") differs from an independently compiled engine");
    if (v.numeric == EngineNumeric::kFp32) {
      Tensor batch({1, s.in_elems});
      std::memcpy(batch.data(), x, static_cast<size_t>(s.in_elems) * 4);
      const Tensor ref =
          (*nets)[static_cast<size_t>(v.net)].Forward(batch,
                                                      CacheMode::kNoCache);
      Check(std::memcmp(ref.data(), c.output.data(),
                        out.size() * sizeof(float)) == 0,
            "fp32 output of request " + std::to_string(c.id) +
                " differs from Sequential::Forward");
    }
    ++checked;
  }
  return checked;
}


// ---------------------------------------------------- engine and kernels

/// Median wall time of \p fn in microseconds over enough calls to fill
/// about \p budget_ms (at least 5), after one warm-up call. \p prep runs
/// untimed before every call.
template <typename Prep, typename Fn>
double MedianUs(double budget_ms, Prep&& prep, Fn&& fn) {
  prep();
  const Clock::time_point w = Clock::now();
  fn();
  const double once_ms = std::max(MsSince(w), 1e-3);
  const int reps =
      static_cast<int>(std::clamp(budget_ms / once_ms, 5.0, 2000.0));
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    prep();
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(MsSince(t0) * 1000.0);
  }
  return Median(std::move(us));
}

/// Median PredictInto latency of \p net compiled at \p numeric, at batch
/// 1, 8 and 32, reported as <prefix>b<batch>.
void ProbePredict(const Sequential& net, EngineNumeric numeric,
                  int64_t in_elems, int64_t out_elems, const Trace& tr,
                  const std::string& prefix, Metrics* m) {
  EngineConfig probe_config(32);
  probe_config.numeric = numeric;
  InferenceEngine engine =
      Value(InferenceEngine::Compile(net, {in_elems}, probe_config),
            "probe compile");
  std::vector<float> out(static_cast<size_t>(32 * out_elems));
  Check(tr.size() >= 32, "probe needs 32 payloads");
  for (int64_t b : {1, 8, 32}) {
    const double us = MedianUs(
        150.0, [] {},
        [&] { Check(engine.PredictInto(tr.x(0), b, out.data()).ok(), "probe"); });
    m->Layer(prefix + "b" + std::to_string(b), us, "us");
  }
}

/// Direct InferenceEngine probes on the workload's first model: predict
/// latency at batch 1/8/32, compile time per numeric, workspace bytes.
void ProbeEngine(const Sequential& net, int64_t in_elems, int64_t out_elems,
                 int64_t max_batch, const Trace& tr, Metrics* m) {
  ProbePredict(net, EngineNumeric::kFp32, in_elems, out_elems, tr,
               "infer.predict_us.", m);
  for (EngineNumeric numeric :
       {EngineNumeric::kFp32, EngineNumeric::kInt8, EngineNumeric::kInt4}) {
    EngineConfig ec(max_batch);
    ec.numeric = numeric;
    int64_t workspace = 0;
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      const Clock::time_point t0 = Clock::now();
      InferenceEngine e =
          Value(InferenceEngine::Compile(net, {in_elems}, ec), "compile");
      ms.push_back(MsSince(t0));
      workspace = e.workspace_bytes();
    }
    m->Layer(std::string("infer.compile_ms.") + NumericName(numeric),
             Median(ms), "ms");
    if (numeric == EngineNumeric::kFp32) {
      m->Layer("infer.workspace_bytes", static_cast<double>(workspace), "B");
    } else {
      m->Layer(std::string("infer.workspace_bytes.") + NumericName(numeric),
               static_cast<double>(workspace), "B");
    }
  }
}

/// Direct calls into the active kernel table at the wide model's GEMM
/// shapes (M=32 rows, N=1024 outputs, K=256 and K=1024). Bytes are
/// computed from the operand sizes, not measured.
void ProbeKernels(uint64_t seed, Metrics* m) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  const int64_t rows = 32, n = 1024;
  for (int64_t k : {256, 1024}) {
    Rng rng(seed ^ static_cast<uint64_t>(k));
    const int64_t kp = PadToQuantBlock(k);
    const int64_t blocks = kp / kQuantBlock;
    std::vector<float> a(static_cast<size_t>(rows * k));
    std::vector<float> b(static_cast<size_t>(k * n));   // K x N
    std::vector<float> bt(static_cast<size_t>(n * k));  // N x K
    std::vector<float> bias(static_cast<size_t>(n));
    std::vector<float> c(static_cast<size_t>(rows * n));
    for (float& v : a) v = static_cast<float>(rng.Gaussian());
    for (float& v : b) v = static_cast<float>(rng.Gaussian() * 0.05);
    for (float& v : bias) v = static_cast<float>(rng.Gaussian() * 0.1);
    for (int64_t i = 0; i < k; ++i) {
      for (int64_t j = 0; j < n; ++j) bt[j * k + i] = b[i * n + j];
    }
    std::vector<int8_t> aq(static_cast<size_t>(rows * kp));
    std::vector<float> as(static_cast<size_t>(rows * blocks));
    std::vector<int8_t> bq(static_cast<size_t>(n * kp));
    std::vector<float> bs(static_cast<size_t>(n * blocks));
    std::vector<uint8_t> b4(static_cast<size_t>(n * kp / 2));
    std::vector<float> b4s(static_cast<size_t>(n * blocks));
    Q8BlockQuantizeRowsInto(a.data(), rows, k, aq.data(), as.data());
    Q8BlockQuantizeRowsInto(bt.data(), n, k, bq.data(), bs.data());
    Q4BlockQuantizeRowsInto(bt.data(), n, k, b4.data(), b4s.data());

    const double flops = 2.0 * static_cast<double>(rows * k * n);
    const double out_bytes = 4.0 * static_cast<double>(rows * n);
    const double a_q8_bytes = static_cast<double>(rows * kp + 4 * rows * blocks);
    struct Entry {
      const char* name;
      double bytes;
      double us;
    };
    const std::string ks = ".k" + std::to_string(k);
    auto zero_c = [&] { std::fill(c.begin(), c.end(), 0.0f); };
    const Entry entries[] = {
        {"matmul_bias_act",
         4.0 * static_cast<double>(rows * k + k * n + n) + out_bytes,
         MedianUs(150.0, zero_c,
                  [&] {
                    kt.matmul_bias_act_range(a.data(), b.data(), bias.data(),
                                             c.data(), 0, rows, k, n, 1);
                  })},
        {"q8_gemm",
         a_q8_bytes + static_cast<double>(n * kp + 4 * n * blocks) + out_bytes,
         MedianUs(150.0, zero_c,
                  [&] {
                    kt.q8_gemm_rows(aq.data(), as.data(), bq.data(), bs.data(),
                                    c.data(), 0, rows, kp, n);
                  })},
        {"q4_gemm",
         a_q8_bytes + static_cast<double>(n * kp / 2 + 4 * n * blocks) +
             out_bytes,
         MedianUs(150.0, zero_c,
                  [&] {
                    kt.q4_gemm_rows(aq.data(), as.data(), b4.data(),
                                    b4s.data(), c.data(), 0, rows, kp, n);
                  })},
    };
    for (const Entry& e : entries) {
      const std::string base = std::string("simd.") + e.name + ks;
      m->Layer(base + ".us", e.us, "us");
      m->Layer(base + ".flops", flops, "count");
      m->Layer(base + ".bytes_computed", e.bytes, "B");
      m->Layer(base + ".gflops", flops / (e.us * 1e3), "GFLOP/s");
    }
  }
}

// ------------------------------------------------------------- tracing

/// Self time by span name, folded over successive trace-ring drains.
struct SelfTimes {
  std::map<std::string, obs::SpanStat> by_name;
  std::map<std::string, std::string> cat_of;
  int64_t wall_events = 0;
  int64_t sim_events = 0;
  int64_t dropped = 0;
  bool wrote_chrome = false;

  void Fold(const obs::TraceBuffer& buf, const std::string& chrome_path) {
    for (const obs::TraceEvent& ev : buf.events) {
      if (ev.pid == obs::kSimTrack) {
        ++sim_events;
      } else {
        ++wall_events;
        cat_of.emplace(ev.name, ev.cat);
      }
    }
    dropped += buf.dropped;
    for (const obs::SpanStat& st : obs::SelfTimeByName(buf)) {
      obs::SpanStat& acc = by_name[st.name];
      acc.name = st.name;
      acc.count += st.count;
      acc.total_ms += st.total_ms;
      acc.self_ms += st.self_ms;
    }
    if (!wrote_chrome && !chrome_path.empty() && !buf.events.empty()) {
      Check(obs::WriteChromeTrace(chrome_path, buf).ok(),
            "cannot write " + chrome_path);
      wrote_chrome = true;
    }
  }

  /// Layer of a span, from its category: kernel.<isa> -> simd; the
  /// benchmark's own spans -> serve / fleet; runtime -> runtime; the
  /// engine's predict, step and compile spans -> infer.
  std::string LayerOf(const std::string& name) const {
    const auto it = cat_of.find(name);
    const std::string cat = it == cat_of.end() ? "" : it->second;
    if (cat.rfind("kernel", 0) == 0) return "simd";
    if (cat == "bench.serve") return "serve";
    if (cat == "bench.fleet") return "fleet";
    if (cat == "runtime") return "runtime";
    return "infer";
  }

  void Report(const std::string& workload, Metrics* m) const {
    std::map<std::string, double> layer_ms;
    double total = 0.0;
    std::vector<obs::SpanStat> rows;
    for (const auto& [name, st] : by_name) {
      layer_ms[LayerOf(name)] += st.self_ms;
      total += st.self_ms;
      rows.push_back(st);
    }
    std::sort(rows.begin(), rows.end(),
              [](const obs::SpanStat& a, const obs::SpanStat& b) {
                return a.self_ms > b.self_ms;
              });
    std::printf("selftime %s (traced replay; kernel -> engine -> serve -> "
                "fleet)\n", workload.c_str());
    std::printf("selftime %-8s %-28s %10s %12s %12s\n", "layer", "span",
                "count", "total_ms", "self_ms");
    for (const char* layer : {"simd", "infer", "runtime", "serve", "fleet"}) {
      for (const obs::SpanStat& st : rows) {
        if (LayerOf(st.name) != layer) continue;
        std::printf("selftime %-8s %-28s %10" PRId64 " %12.3f %12.3f\n",
                    layer, st.name.c_str(), st.count, st.total_ms,
                    st.self_ms);
      }
      m->Layer(std::string("trace.self_ms.") + layer, layer_ms[layer], "ms");
    }
    Check(total > 0.0, "traced run recorded no spans");
    m->Layer("trace.self_share.kernel", layer_ms["simd"] / total, "ratio");
    m->Layer("trace.self_share.engine",
             (layer_ms["infer"] + layer_ms["runtime"]) / total, "ratio");
    m->Layer("trace.self_share.front",
             (layer_ms["serve"] + layer_ms["fleet"]) / total, "ratio");
    m->Layer("obs.spans", static_cast<double>(wall_events + sim_events),
             "count");
    m->Layer("obs.spans.wall", static_cast<double>(wall_events), "count");
    m->Layer("obs.spans.sim", static_cast<double>(sim_events), "count");
    m->Layer("obs.dropped_spans", static_cast<double>(dropped), "count");
  }
};

/// Traced-vs-untraced wall of the same work: \p run(traced) returns the
/// wall ms of one repetition; the order alternates so drifts hit both.
template <typename Run>
void MeasureTraceOverhead(int reps, Run&& run, Metrics* m) {
  std::vector<double> traced, untraced;
  for (int r = 0; r < reps; ++r) {
    for (int slot = 0; slot < 2; ++slot) {
      const bool t = ((r + slot) % 2) == 1;
      (t ? traced : untraced).push_back(run(t));
    }
  }
  m->Layer("obs.trace_overhead", Median(traced) / Median(untraced) - 1.0,
           "ratio");
  m->Layer("obs.traced_ms", Median(traced), "ms");
  m->Layer("obs.untraced_ms", Median(untraced), "ms");
}

// ---------------------------------------------------- running workloads

/// Cycles (fleet: repetitions and paced cycles) whose requests the result
/// counts. Every run makes at least this many, so the counts do not grow
/// with speed.
constexpr int kCountedCycles = 3;

struct RunTotals {
  int64_t attempted = 0;  ///< requests offered in the counted phases
  int64_t failed = 0;     ///< of those: shed, missed, lost or dead-replica
  int64_t checked = 0;    ///< outputs bit-compared

  void Add(const Accounting& a) {
    attempted += a.offered;
    failed += a.offered - a.completed;
  }
};

/// How many cycles (or repetitions) of \p nominal_ms fill \p share of the
/// run's budget: at least kCountedCycles, at most 500.
int CyclesFor(const Args& args, double share, double nominal_ms) {
  return std::clamp(
      static_cast<int>(std::lround(share * args.seconds * 1000.0 / nominal_ms)),
      kCountedCycles, 500);
}

/// Set-up samples per run; setup_s is their median.
constexpr size_t kSetupSamples = 41;

/// Moves the calling thread over the CPUs the process may use, one CPU per
/// step, and puts the original mask back when destroyed. On a shared host
/// each vCPU is slowed by its own neighbours, and an unpinned thread may
/// stay on one vCPU for a whole run; rotating gives every run the same mix
/// of CPUs. Threads started while pinned (a server's pool) share the CPU.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    Check(sched_getaffinity(0, sizeof(all_), &all_) == 0, "sched_getaffinity");
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU in turn and returns it.
  int Pin() {
    const int cpu = cpus_[next_++ % cpus_.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    Check(sched_setaffinity(0, sizeof(one), &one) == 0, "sched_setaffinity");
    return cpu;
  }
  /// Lets the calling thread run on every CPU again.
  void Unpin() {
    Check(sched_setaffinity(0, sizeof(all_), &all_) == 0, "sched_setaffinity");
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Set-up samples a server workload takes on throwaway servers in each
/// cycle, so that setup_s samples the whole run and every CPU rather than
/// one moment on one CPU.
constexpr int kExtraSetupsPerCycle = 4;

/// Replay wall time built from each segment's fastest cycle. Every cycle
/// replays the same trace, so segment k is the same work in every cycle,
/// its program stalls included; host interference lands on different
/// segments in different cycles and drops out.
double BestSegmentsMs(const std::vector<std::vector<double>>& per_cycle) {
  double total = 0.0;
  for (size_t k = 0; k < per_cycle.front().size(); ++k) {
    double best = per_cycle.front()[k];
    for (const std::vector<double>& c : per_cycle) {
      Check(c.size() == per_cycle.front().size(), "segment counts differ");
      best = std::min(best, c[k]);
    }
    total += best;
  }
  return total;
}

/// Adds one paced phase's samples, quantiles and accounting to \p into.
void Pool(PacedResult* into, const PacedResult& p) {
  Check(p.latency_ms.size() >= 1000,
        "a paced phase needs >= 1000 samples, so that ten lie beyond p99");
  into->cycle_p50.push_back(Quantile(p.latency_ms, 0.5));
  into->cycle_p99.push_back(Quantile(p.latency_ms, 0.99));
  into->min_cycle_samples =
      into->cycle_p99.size() == 1
          ? p.latency_ms.size()
          : std::min(into->min_cycle_samples, p.latency_ms.size());
  Accounting& a = into->acct;
  a.offered += p.acct.offered;
  a.admitted += p.acct.admitted;
  a.shed_queue_full += p.acct.shed_queue_full;
  a.shed_deadline += p.acct.shed_deadline;
  a.shed_draining += p.acct.shed_draining;
  a.shed_no_model += p.acct.shed_no_model;
  a.completed += p.acct.completed;
  a.missed += p.acct.missed;
  a.lost += p.acct.lost;
  into->latency_ms.insert(into->latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
  into->lag_ms.insert(into->lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
  into->wall_ms += p.wall_ms;
  into->batches += p.batches;
}

/// Paced-phase end-to-end metrics and the generator's lag. Each paced
/// latency is the lowest of the cycles' quantiles: host interference only
/// adds latency, and the least-disturbed cycle varies least between runs.
/// The median over cycles and the pooled quantiles are printed beside it.
void ReportPaced(const PacedResult& p, Metrics* m) {
  const size_t n = p.latency_ms.size();
  const size_t cycles = p.cycle_p99.size();
  std::printf("paced cycles=%zu samples=%zu (>= %zu per cycle, >= %zu "
              "beyond its p99) wall_ms=%.1f median_cycle_p50_ms=%.4f "
              "median_cycle_p99_ms=%.4f pooled_p50_ms=%.4f "
              "pooled_p99_ms=%.4f\n",
              cycles, n, p.min_cycle_samples, p.min_cycle_samples / 100,
              p.wall_ms, Median(p.cycle_p50), Median(p.cycle_p99),
              Quantile(p.latency_ms, 0.5), Quantile(p.latency_ms, 0.99));
  m->E2e("paced_p50_ms",
         *std::min_element(p.cycle_p50.begin(), p.cycle_p50.end()), "ms");
  m->E2e("paced_p99_ms",
         *std::min_element(p.cycle_p99.begin(), p.cycle_p99.end()), "ms");
  m->Layer("paced.samples", static_cast<double>(n), "count");
  m->Layer("paced.cycles", static_cast<double>(cycles), "count");
  m->Layer("driver.lag_p99_ms", Quantile(p.lag_ms, 0.99), "ms");
  m->Layer("driver.lag_max_ms",
           *std::max_element(p.lag_ms.begin(), p.lag_ms.end()), "ms");
}

/// serve.* and infer.* per-call metrics from the timed calls.
void ReportTimers(const CallTimers& t, double advance_ms, double busy_share,
                  Metrics* m) {
  m->Layer("serve.submit_us.admitted.p50", Quantile(t.submit_us_admitted, 0.5),
           "us");
  m->Layer("serve.submit_us.admitted.p99",
           Quantile(t.submit_us_admitted, 0.99), "us");
  m->Layer("serve.submit_us.admitted.n",
           static_cast<double>(t.submit_us_admitted.size()), "count");
  if (!t.submit_us_shed.empty()) {
    m->Layer("serve.submit_us.shed.p50", Quantile(t.submit_us_shed, 0.5), "us");
    m->Layer("serve.submit_us.shed.p99", Quantile(t.submit_us_shed, 0.99),
             "us");
  }
  m->Layer("serve.submit_us.shed.n",
           static_cast<double>(t.submit_us_shed.size()), "count");
  m->Layer("serve.advance_ms.sum", advance_ms, "ms");
  double sum = 0.0;
  for (double b : t.batches_per_wave) sum += b;
  m->Layer("serve.batches_per_wave",
           t.batches_per_wave.empty()
               ? 0.0
               : sum / static_cast<double>(t.batches_per_wave.size()),
           "count");
  m->Layer("infer.batch_ms.p50", Quantile(t.batch_ms, 0.5), "ms");
  m->Layer("infer.batch_ms.p99", Quantile(t.batch_ms, 0.99), "ms");
  m->Layer("infer.busy_share", busy_share, "ratio");
}

double BusyShare(const CallTimers& t, double wall_ms, int workers) {
  double busy = 0.0;
  for (double b : t.batch_ms) busy += b;
  return busy / (wall_ms * workers);
}

void RunServerWorkload(const Args& args, const ServerSpec& s, Metrics* m,
                       RunTotals* totals) {
  const double budget_ms = args.seconds * 1000.0;
  std::vector<Sequential> nets = MakeNets(s, args.seed);
  const Trace replay = MakeTrace(args.seed, s.replay_requests, 0.0,
                                 s.replay_rate_rps, s.in_elems, s.mix);

  // Warm-up: code, allocator and page cache, untimed.
  {
    Sut warm = MakeSut(s, nets);
    Trace head = replay;
    head.at_ms.resize(static_cast<size_t>(replay.size() / 10));
    Replay(&warm, s, nets, head, nullptr);
  }

  // deploy_ms holds the set-up Publish of every server, swap_ms the hot
  // swaps.
  std::vector<double> setup_ms, create_ms, deploy_ms, swap_ms, rps,
      advance_ms, busy;
  std::vector<std::vector<double>> segment_ms;  // per cycle
  ReplayResult first;
  PacedResult p;  // pooled over cycles
  CallTimers timers;
  CpuRotation rotation;
  const Clock::time_point start = Clock::now();
  // Each cycle is a fresh server, the replay, then the paced phase on that
  // same server. Every cycle repeats the same completion-log sizes, so each
  // cycle is an independent realization of the same server lifecycle,
  // stalls included. The cycle count is fixed; a run far slower than the
  // reference host stops early, after twice its time share.
  const int cycles = CyclesFor(args, 0.85, s.nominal_cycle_ms);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (cycle >= kCountedCycles && MsSince(start) >= 1.7 * budget_ms) break;
    const Trace paced_trace = MakeTrace(PacedSeed(args.seed, cycle), -1,
                                        kPacedCycleMs, s.paced_rate_rps,
                                        s.in_elems, s.mix);
    for (int k = 0; k < kExtraSetupsPerCycle; ++k) {
      rotation.Pin();
      Sut extra = MakeSut(s, nets);
      rotation.Unpin();
      setup_ms.push_back(extra.create_ms + extra.publish_ms);
      create_ms.push_back(extra.create_ms);
      deploy_ms.push_back(extra.publish_ms);
    }
    const std::pair<double, double> steal0 = CpuStealAndTotal();
    Sut sut = MakeSut(s, nets);
    setup_ms.push_back(sut.create_ms + sut.publish_ms);
    create_ms.push_back(sut.create_ms);
    deploy_ms.push_back(sut.publish_ms);
    CallTimers rep_timers;
    ReplayResult r =
        Replay(&sut, s, nets, replay, args.trace ? &rep_timers : nullptr);
    r.acct.CheckConservation("replay");
    Check(r.acct.lost == 0, "replay lost admitted requests");
    for (const Swap& sw : r.swaps) swap_ms.push_back(sw.publish_ms);
    rps.push_back(static_cast<double>(r.completions_end) /
                  (r.wall_ms / 1000.0));
    if (cycle < kCountedCycles) totals->Add(r.acct);
    if (args.trace) {
      advance_ms.push_back(rep_timers.advance_ms);
      busy.push_back(BusyShare(rep_timers, r.wall_ms, s.config.workers));
      auto append = [](std::vector<double>* to, const std::vector<double>& v) {
        to->insert(to->end(), v.begin(), v.end());
      };
      append(&timers.submit_us_admitted, rep_timers.submit_us_admitted);
      append(&timers.submit_us_shed, rep_timers.submit_us_shed);
      append(&timers.batches_per_wave, rep_timers.batches_per_wave);
      append(&timers.batch_ms, rep_timers.batch_ms);
    }
    if (cycle == 0) {
      first = r;
      r.acct.Print("replay");
      for (const Swap& sw : r.swaps) {
        std::printf("swap at_request=%" PRId64 " version=%" PRId64
                    " publish_ms=%.3f\n",
                    sw.at_request, sw.version, sw.publish_ms);
      }
    } else {
      Check(r.digest == first.digest,
            "replay digest differs between repetitions of the same trace");
    }

    const PacedResult c = Paced(&sut, s, paced_trace, nullptr);
    c.acct.CheckConservation("paced");
    Check(c.acct.lost == 0, "paced phase lost admitted requests");
    const std::pair<double, double> steal1 = CpuStealAndTotal();
    segment_ms.push_back(r.segment_ms);
    std::printf("cycle=%d replay_wall_ms=%.1f replay_rps=%.1f paced_p50_ms=%.4f "
                "paced_p99_ms=%.4f lag_max_ms=%.3f steal=%.3f\n",
                cycle, r.wall_ms, rps.back(), Quantile(c.latency_ms, 0.5),
                Quantile(c.latency_ms, 0.99),
                *std::max_element(c.lag_ms.begin(), c.lag_ms.end()),
                (steal1.first - steal0.first) /
                    std::max(1.0, steal1.second - steal0.second));
    Pool(&p, c);
    if (cycle < kCountedCycles) totals->Add(c.acct);
    if (cycle == 0) {
      // ---- output checks (untimed): replay outputs, swaps included, and
      // a sample of the paced phase's.
      totals->checked += CheckOutputs(*sut.server, s, &nets, replay,
                                      first.id_of, first.swaps, true, 0,
                                      first.completions_end, args.seed);
      totals->checked += CheckOutputs(*sut.server, s, &nets, paced_trace,
                                      c.id_of, first.swaps, false,
                                      c.completions_begin, c.completions_end,
                                      args.seed + 1);
    }
  }
  p.acct.Print("paced");
  std::printf("replay cycles=%zu digest=%s\n", rps.size(),
              first.digest.c_str());

  // A run that stopped early tops up its set-up samples.
  while (setup_ms.size() < kSetupSamples) {
    rotation.Pin();
    Sut extra = MakeSut(s, nets);
    rotation.Unpin();
    setup_ms.push_back(extra.create_ms + extra.publish_ms);
    create_ms.push_back(extra.create_ms);
    deploy_ms.push_back(extra.publish_ms);
  }

  {
    const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    RuntimeConfig::SetThreads(std::max(nproc, 1));
    Sut wide = MakeSut(s, nets);
    const ReplayResult r = Replay(&wide, s, nets, replay, nullptr);
    RuntimeConfig::SetThreads(1);
    std::printf("digest threads=1 %s threads=%d %s\n", first.digest.c_str(),
                nproc, r.digest.c_str());
    Check(r.digest == first.digest,
          "replay digest differs between DLSYS_THREADS=1 and nproc");
  }

  m->E2e("setup_s", Median(setup_ms) / 1000.0, "s");
  m->E2e("wall_rps",
         static_cast<double>(first.completions_end) /
             (BestSegmentsMs(segment_ms) / 1000.0),
         "req/s");
  m->Layer("replay.median_cycle_rps", Median(rps), "req/s");
  ReportPaced(p, m);
  m->E2e("failed_frac",
         static_cast<double>(first.acct.offered - first.acct.completed) /
             static_cast<double>(first.acct.offered),
         "ratio");
  m->E2e("sim_goodput_rps", first.sim_goodput_rps, "req/s");
  m->E2e("sim_p99_ms", first.sim_p99_ms, "ms");
  m->Layer("serve.mean_batch", first.sim_mean_batch, "count");
  m->Layer("serve.shed.queue_full",
           static_cast<double>(first.acct.shed_queue_full), "count");
  m->Layer("serve.shed.deadline", static_cast<double>(first.acct.shed_deadline),
           "count");
  m->Layer("serve.shed.draining", static_cast<double>(first.acct.shed_draining),
           "count");
  m->Layer("serve.deadline_missed", static_cast<double>(first.acct.missed),
           "count");
  m->Layer("replay.requests", static_cast<double>(replay.size()), "count");
  m->Layer("replay.cycles", static_cast<double>(rps.size()), "count");
  m->Layer("check.outputs_compared", static_cast<double>(totals->checked),
           "count");

  if (!args.trace) return;

  // ---- per-layer metrics (trace-1 runs)
  m->Layer("setup.create_ms", Median(create_ms), "ms");
  m->Layer("setup.deploy_ms", Median(deploy_ms), "ms");
  if (!swap_ms.empty()) {
    m->Layer("serve.publish_ms.swap", Median(swap_ms), "ms");
  }
  ReportTimers(timers, Median(advance_ms), Median(busy), m);
  ProbeEngine(nets[0], s.in_elems, s.out_elems, s.config.batch.max_batch,
              replay, m);
  for (size_t k = 1; k < s.versions.size(); ++k) {
    const Version& v = s.versions[k];
    if (v.numeric == EngineNumeric::kFp32) continue;
    ProbePredict(nets[static_cast<size_t>(v.net)], v.numeric, s.in_elems,
                 s.out_elems, replay,
                 std::string("infer.predict_us.") + NumericName(v.numeric) +
                     ".",
                 m);
  }
  // The declared cost model next to the measured batch time.
  const double declared =
      EstimateServiceMs(s.config.cost, std::llround(first.sim_mean_batch));
  m->Layer("serve.cost_model.declared_ms", declared, "ms");
  m->Layer("serve.cost_model.measured_over_declared",
           Quantile(timers.batch_ms, 0.5) / declared, "ratio");
  ProbeKernels(args.seed, m);

  // Traced vs untraced replays of a prefix of the same trace.
  Trace head = replay;
  head.at_ms.resize(static_cast<size_t>(std::min<int64_t>(
      replay.size(), s.replay_requests / 4)));
  SelfTimes st;
  const std::string chrome =
      args.out_dir + "/servebench-" + args.workload + ".trace.json";
  MeasureTraceOverhead(
      3,
      [&](bool traced) {
        Sut t = MakeSut(s, nets);
        obs::ResetTrace();
        obs::SetTracingEnabled(traced);
        SelfTimes* fold = traced && st.by_name.empty() ? &st : nullptr;
        const std::function<void()> drain = [&] {
          const obs::TraceBuffer buf = obs::DrainTrace();
          obs::ResetTrace();
          if (fold != nullptr) fold->Fold(buf, chrome);
        };
        const ReplayResult r =
            Replay(&t, s, nets, head, nullptr, traced ? &drain : nullptr);
        if (traced) drain();
        obs::SetTracingEnabled(false);
        obs::ResetTrace();
        return r.wall_ms;
      },
      m);
  st.Report(args.workload, m);
  std::printf("chrome_trace %s\n", chrome.c_str());
}

// ------------------------------------------------------------ the fleet

struct FleetSpec {
  int64_t in_elems = 32;
  std::vector<int64_t> hidden = {64};
  int64_t out_elems = 10;
  FleetConfig config;
  double duration_ms = 0.0;
  double base_rps = 0.0;
  double paced_rate_rps = 2'000.0;
};

/// fleet-chaos: six replica slots (four at start) of two workers each,
/// power-of-two routing, reactive autoscaling, attribution and burn-rate
/// alerts on.
FleetSpec MakeFleetSpec(uint64_t seed) {
  FleetSpec f;
  FleetConfig& c = f.config;
  c.replica_slots = 6;
  c.initial_replicas = 4;
  c.server.workers = 2;
  c.server.queue_capacity = 64;
  c.server.batch.max_batch = 8;
  c.server.batch.max_delay_ms = 1.0;
  c.server.cost.fixed_ms = 1.0;
  c.server.cost.per_example_ms = 0.25;
  c.server.default_deadline_ms = 40.0;
  c.route = RoutePolicy::kPowerOfTwo;
  c.autoscale.policy = ScalePolicy::kReactive;
  c.autoscale.min_replicas = 4;
  c.autoscale.max_replicas = 6;
  // Low enough that the flash crowd asks for all six slots, and fast enough
  // that they arrive while it lasts.
  c.autoscale.target_utilization = 0.25;
  c.autoscale.decide_interval_ms = 500.0;
  c.autoscale.provision_lag_ms = 1000.0;
  c.tick_ms = 50.0;
  c.window_ms = 500.0;
  c.slo.slo_latency_ms = 8.0;
  c.seed = seed;
  // Every fault, a scale-up and a scale-down fit in one run, and a run is
  // short enough (~0.2 s of wall time) that one run of the benchmark holds
  // over a hundred of them.
  f.duration_ms = 12'000.0;
  f.base_rps = 2'500.0;
  return f;
}

TraceLoadConfig FleetLoad(const FleetSpec& f, uint64_t seed, double scale) {
  TraceLoadConfig load;
  load.seed = seed;
  load.duration_ms = f.duration_ms * scale;
  load.base_rps = f.base_rps;
  load.diurnal_amplitude = 0.3;
  load.diurnal_period_ms = load.duration_ms;
  load.deadline_ms = f.config.server.default_deadline_ms;
  load.model = kModel;
  load.crowds.push_back(
      {0.55 * load.duration_ms, 0.2 * load.duration_ms, 3.0});
  return load;
}

/// One scenario combining a crash storm, a gray failure and a bad-version
/// rollout that the canary rolls back (a republish on the canary).
ChaosScenario FleetChaos(double duration_ms) {
  ChaosScenario s;
  s.name = "servebench_chaos";
  s.seed = 11;
  FleetFaultEvent crash;
  crash.kind = FaultKind::kCrashStorm;
  crash.start_ms = 0.2 * duration_ms;
  crash.fraction = 0.34;
  FleetFaultEvent gray;
  gray.kind = FaultKind::kGrayFailure;
  gray.start_ms = 0.4 * duration_ms;
  gray.duration_ms = 0.15 * duration_ms;
  gray.fraction = 0.34;
  gray.severity = 8.0;
  FleetFaultEvent bad;
  bad.kind = FaultKind::kBadVersionRollout;
  bad.start_ms = 0.7 * duration_ms;
  bad.fraction = 1.0;
  bad.severity = 24.0;
  s.events = {crash, gray, bad};
  return s;
}

/// Wall ms of one full Fleet::Run on the 4-vCPU reference host (see
/// ServerSpec::nominal_cycle_ms).
constexpr double kFleetNominalRunMs = 230.0;

struct FleetRun {
  double create_ms = 0.0;
  double deploy_ms = 0.0;
  double run_ms = 0.0;
  FleetReport report;
  std::string json;
};

FleetRun RunFleetOnce(const FleetSpec& f, uint64_t seed, double scale) {
  FleetRun out;
  Sequential net = MakeNet(f.in_elems, f.hidden, f.out_elems, seed * 1000003ull);
  const ChaosScenario chaos = FleetChaos(f.duration_ms * scale);
  const TraceLoadConfig load = FleetLoad(f, seed, scale);
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Fleet> fleet = Value(Fleet::Create(f.config), "fleet create");
  out.create_ms = MsSince(t0);
  t0 = Clock::now();
  Check(fleet->Deploy(kModel, std::move(net), {f.in_elems}).ok(), "deploy");
  out.deploy_ms = MsSince(t0);
  t0 = Clock::now();
  {
    obs::TraceSpan span("bench.fleet_run", "bench.fleet");
    out.report = Value(fleet->Run(chaos, load), "fleet run");
  }
  out.run_ms = MsSince(t0);
  out.json = FleetReportJson(out.report);
  return out;
}

void CheckFleetConservation(const FleetReport& r) {
  const int64_t shed =
      r.shed_queue_full + r.shed_deadline + r.shed_draining + r.shed_unhealthy;
  std::printf("phase %-22s offered=%" PRId64 " admitted=%" PRId64
              " completed=%" PRId64 " missed=%" PRId64
              " lost=%" PRId64 " failed_dead_replica=%" PRId64
              " shed.queue_full=%" PRId64 " shed.deadline=%" PRId64
              " shed.draining=%" PRId64 " shed.unhealthy=%" PRId64 "\n",
              "fleet_run", r.offered, r.admitted, r.completed_ok, r.missed,
              r.dropped_queued, r.failed_dead_replica, r.shed_queue_full,
              r.shed_deadline, r.shed_draining, r.shed_unhealthy);
  // A request routed into a dead replica's detection gap is neither
  // admitted nor shed; it is delivered later as a miss.
  Check(r.offered == r.admitted + shed + r.failed_dead_replica,
        "fleet: offered != admitted + shed + failed_dead_replica");
  Check(r.admitted + r.failed_dead_replica == r.completed_ok + r.missed,
        "fleet: admitted + failed_dead_replica != completed + missed");
}

void RunFleetWorkload(const Args& args, Metrics* m, RunTotals* totals) {
  const double budget_ms = args.seconds * 1000.0;
  const FleetSpec f = MakeFleetSpec(args.seed);
  // Fleet::Run generates the arrivals from the trace config itself; time
  // that generation here so it can be told apart from serving.
  {
    const Clock::time_point t0 = Clock::now();
    const std::vector<double> arrivals =
        GenerateTraceArrivals(FleetLoad(f, args.seed, 1.0));
    m->Layer("fleet.tracegen_ms", MsSince(t0), "ms");
    m->Layer("fleet.trace_requests", static_cast<double>(arrivals.size()),
             "count");
  }
  RunFleetOnce(f, args.seed, 1.0);  // warm-up, untimed

  std::vector<double> setup_ms, create_ms, deploy_ms, run_ms;
  FleetRun first;
  // Each repetition runs pinned to the next CPU in turn. Fleet::Run drives
  // one server at a time and seldom wakes a server's pool thread, so
  // pinning costs it next to no parallelism.
  CpuRotation rotation;
  std::map<int, std::vector<double>> ms_by_cpu;
  const Clock::time_point start = Clock::now();
  const int reps = CyclesFor(args, 0.55, kFleetNominalRunMs);
  for (int rep = 0; rep < reps; ++rep) {
    if (rep >= kCountedCycles && MsSince(start) >= 1.1 * budget_ms) break;
    const int cpu = rotation.Pin();
    FleetRun r = RunFleetOnce(f, args.seed, 1.0);
    ms_by_cpu[cpu].push_back(r.run_ms);
    setup_ms.push_back(r.create_ms + r.deploy_ms);
    create_ms.push_back(r.create_ms);
    deploy_ms.push_back(r.deploy_ms);
    run_ms.push_back(r.run_ms);
    std::printf("fleet rep=%d cpu=%d run_ms=%.1f rps=%.1f\n", rep, cpu,
                r.run_ms,
                static_cast<double>(r.report.completed_ok) / (r.run_ms / 1e3));
    if (rep < kCountedCycles) {
      totals->attempted += r.report.offered;
      totals->failed += r.report.offered - r.report.completed_ok;
    }
    if (rep == 0) {
      CheckFleetConservation(r.report);
      first = std::move(r);
    } else {
      Check(r.json == first.json,
            "FleetReportJson differs between repetitions of the same run");
    }
  }
  rotation.Unpin();
  for (const auto& [cpu, ms] : ms_by_cpu) {
    std::printf("fleet cpu=%d reps=%zu median_run_ms=%.1f\n", cpu, ms.size(),
                Median(ms));
  }
  Digest d;
  d.AddString(first.json);
  std::printf("fleet reps=%zu report_digest=%s\n", run_ms.size(),
              d.Hex().c_str());
  std::printf("fleet_report %s\n", first.json.c_str());
  while (setup_ms.size() < kSetupSamples) {
    Sequential net =
        MakeNet(f.in_elems, f.hidden, f.out_elems, args.seed * 1000003ull);
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Fleet> fleet =
        Value(Fleet::Create(f.config), "fleet create");
    const double c = MsSince(t0);
    t0 = Clock::now();
    Check(fleet->Deploy(kModel, std::move(net), {f.in_elems}).ok(), "deploy");
    setup_ms.push_back(c + MsSince(t0));
    create_ms.push_back(c);
    deploy_ms.push_back(MsSince(t0));
  }

  // Paced phase: one replica's server (the fleet's ServerConfig and model)
  // driven in real time, since Fleet::Run drives its own clock. Like the
  // server workloads it runs in cycles, each on a fresh server.
  ServerSpec rs;
  rs.in_elems = f.in_elems;
  rs.hidden = f.hidden;
  rs.out_elems = f.out_elems;
  rs.config = f.config.server;
  rs.deadline_ms = f.config.server.default_deadline_ms;
  rs.paced_rate_rps = f.paced_rate_rps;
  std::vector<Sequential> nets = MakeNets(rs, args.seed);
  const int cycles = CyclesFor(args, 0.25, kPacedCycleMs);
  CallTimers timers;
  PacedResult p;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const Trace paced_trace = MakeTrace(PacedSeed(args.seed, cycle), -1,
                                        kPacedCycleMs, rs.paced_rate_rps,
                                        rs.in_elems, {});
    Sut sut = MakeSut(rs, nets);
    const PacedResult c =
        Paced(&sut, rs, paced_trace, args.trace ? &timers : nullptr);
    c.acct.CheckConservation("paced");
    Check(c.acct.lost == 0, "paced phase lost admitted requests");
    if (cycle < kCountedCycles) totals->Add(c.acct);
    if (cycle == 0) {
      totals->checked += CheckOutputs(*sut.server, rs, &nets, paced_trace,
                                      c.id_of, {}, false, c.completions_begin,
                                      c.completions_end, args.seed);
    }
    Pool(&p, c);
  }
  p.acct.Print("paced");

  // ---- checks (untimed)
  {
    const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    RuntimeConfig::SetThreads(std::max(nproc, 1));
    const FleetRun r = RunFleetOnce(f, args.seed, 1.0);
    RuntimeConfig::SetThreads(1);
    Digest dn;
    dn.AddString(r.json);
    std::printf("digest threads=1 %s threads=%d %s\n", d.Hex().c_str(), nproc,
                dn.Hex().c_str());
    Check(r.json == first.json,
          "FleetReportJson differs between DLSYS_THREADS=1 and nproc");
  }

  const FleetReport& rep = first.report;
  m->E2e("setup_s", Median(setup_ms) / 1000.0, "s");
  // Every repetition is the same simulated run. The median one reads as
  // steadily between runs as the fastest, without resting on a lucky one.
  m->E2e("wall_rps",
         static_cast<double>(rep.completed_ok) / (Median(run_ms) / 1000.0),
         "req/s");
  ReportPaced(p, m);
  m->E2e("failed_frac",
         static_cast<double>(rep.offered - rep.completed_ok) /
             static_cast<double>(rep.offered),
         "ratio");
  m->E2e("sim_goodput_rps", rep.goodput_rps(), "req/s");
  m->E2e("sim_p99_ms", rep.p99_ms, "ms");
  m->Layer("fleet.create_s", Median(create_ms) / 1000.0, "s");
  m->Layer("fleet.deploy_s", Median(deploy_ms) / 1000.0, "s");
  m->Layer("fleet.run_s", Median(run_ms) / 1000.0, "s");
  m->Layer("fleet.ticks_per_s",
           rep.duration_ms / f.config.tick_ms / (Median(run_ms) / 1000.0),
           "1/s");
  m->Layer("fleet.crashes", static_cast<double>(rep.crashes), "count");
  m->Layer("fleet.restarts", static_cast<double>(rep.restarts), "count");
  m->Layer("fleet.rollouts", static_cast<double>(rep.rollouts), "count");
  m->Layer("fleet.rollbacks", static_cast<double>(rep.rollbacks), "count");
  m->Layer("fleet.scale_ups", static_cast<double>(rep.scale_ups), "count");
  m->Layer("fleet.scale_downs", static_cast<double>(rep.scale_downs), "count");
  m->Layer("fleet.alerts", static_cast<double>(rep.alerts.size()), "count");
  m->Layer("fleet.reps", static_cast<double>(run_ms.size()), "count");
  m->Layer("check.outputs_compared", static_cast<double>(totals->checked),
           "count");
  Check(rep.crashes > 0 && rep.rollbacks > 0,
        "fleet-chaos must crash and roll back");

  if (!args.trace) return;

  m->Layer("setup.create_ms", Median(create_ms), "ms");
  m->Layer("setup.deploy_ms", Median(deploy_ms), "ms");
  m->Layer("serve.mean_batch",
           static_cast<double>(p.acct.completed + p.acct.missed) /
               static_cast<double>(std::max<int64_t>(p.batches, 1)),
           "count");
  ReportTimers(timers, timers.advance_ms,
               BusyShare(timers, p.wall_ms, rs.config.workers), m);
  ProbeEngine(nets[0], rs.in_elems, rs.out_elems, rs.config.batch.max_batch,
              MakeTrace(args.seed, 32, 0.0, 1.0, rs.in_elems, {}), m);
  ProbeKernels(args.seed, m);

  // Traced vs untraced runs of a shortened fleet run (3 s simulated, the
  // chaos schedule compressed with it), sized so the trace rings do not
  // overflow.
  SelfTimes st;
  const std::string chrome =
      args.out_dir + "/servebench-" + args.workload + ".trace.json";
  MeasureTraceOverhead(
      3,
      [&](bool traced) {
        obs::ResetTrace();
        obs::SetTracingEnabled(traced);
        const FleetRun r = RunFleetOnce(f, args.seed, 0.25);
        obs::SetTracingEnabled(false);
        if (traced && st.by_name.empty()) st.Fold(obs::DrainTrace(), chrome);
        obs::ResetTrace();
        return r.run_ms;
      },
      m);
  st.Report(args.workload, m);
  std::printf("chrome_trace %s\n", chrome.c_str());
}

void PrintMetrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& x : ms) {
    std::printf("%s %s %.17g %s\n", kind, x.name.c_str(), x.value,
                x.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RuntimeConfig::SetThreads(1);
  obs::SetTracingEnabled(false);
  PrintStamp(args);

  const std::pair<double, double> steal0 = CpuStealAndTotal();
  Metrics m;
  RunTotals totals;
  if (args.workload == "tenant-frontdoor") {
    RunServerWorkload(args, FrontdoorSpec(), &m, &totals);
  } else if (args.workload == "wide-mlp-swap") {
    RunServerWorkload(args, WideSpec(), &m, &totals);
  } else if (args.workload == "fleet-chaos") {
    RunFleetWorkload(args, &m, &totals);
  } else {
    Fail("unknown workload '" + args.workload +
         "' (tenant-frontdoor, wide-mlp-swap, fleet-chaos)");
  }
  m.E2e("peak_rss_mb", PeakRssMb(), "MB");
  const std::pair<double, double> steal1 = CpuStealAndTotal();
  if (steal1.second > steal0.second) {
    // Wall-clock metrics are only as steady as the host: report how much
    // CPU time it took away during the run.
    m.Layer("env.cpu_steal_share",
            (steal1.first - steal0.first) / (steal1.second - steal0.second),
            "ratio");
  }

  PrintMetrics("end_to_end", m.e2e);
  PrintMetrics("per_layer", m.layer);

  // Every check above exits before this line, so a run that prints it had
  // no wrong output, broken conservation or digest mismatch.
  std::printf("requests attempted=%" PRId64 " failed=%" PRId64 "\n",
              totals.attempted, totals.failed);
  return 0;
}
