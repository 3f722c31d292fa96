// Tests for the serving layer (src/serve): RCU hot-swap correctness
// (every completed request's output is bitwise the version it was
// admitted under, at any DLSYS_THREADS), bounded-queue and deadline
// admission, the max-batch/max-delay batch policy and its same-tick
// rule, deterministic bit-for-bit load replay, thread-safety of
// registry publish/acquire under real concurrency (the TSan target), and
// request conservation over seeded random scenarios on both scheduling
// paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/nn/train.h"
#include "src/obs/attribution.h"
#include "src/runtime/runtime.h"
#include "src/serve/admission.h"
#include "src/serve/loadgen.h"
#include "src/serve/registry.h"
#include "src/serve/scheduler.h"
#include "src/serve/server.h"
#include "src/serve/slots.h"

namespace dlsys {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.bytes())) == 0;
}

/// A small trained-free MLP; distinct seeds give distinct weights.
Sequential MakeNet(uint64_t seed) {
  Sequential net = MakeMlp(16, {24}, 4);
  Rng rng(seed);
  net.Init(&rng);
  return net;
}

// ------------------------------------------------------------- registry

TEST(ModelRegistryTest, PublishAcquireAndVersioning) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Acquire("m"), nullptr);
  EXPECT_EQ(registry.LatestVersion("m"), 0);

  Sequential net = MakeNet(1);
  auto snap1 = CompileSnapshot(net, {16}, /*replicas=*/2);
  ASSERT_TRUE(snap1.ok()) << snap1.status().ToString();
  auto v1 = registry.Publish("m", std::move(snap1).value());
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1);
  EXPECT_EQ(registry.swap_count(), 0);  // first publication is not a swap

  std::shared_ptr<ModelSnapshot> held = registry.Acquire("m");
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->version, 1);
  EXPECT_EQ(held->model, "m");
  EXPECT_EQ(held->in_elems, 16);
  EXPECT_EQ(held->out_elems, 4);
  ASSERT_EQ(held->replicas.size(), 2u);

  auto snap2 = CompileSnapshot(MakeNet(2), {16}, 2);
  ASSERT_TRUE(snap2.ok());
  auto v2 = registry.Publish("m", std::move(snap2).value());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);
  EXPECT_EQ(registry.swap_count(), 1);
  EXPECT_EQ(registry.LatestVersion("m"), 2);
  EXPECT_EQ(registry.Acquire("m")->version, 2);

  // RCU guarantee: the pre-swap snapshot we hold is untouched and usable.
  EXPECT_EQ(held->version, 1);
  Tensor x({16});
  Rng rng(3);
  x.FillGaussian(&rng, 1.0f);
  Tensor out({1, 4});
  EXPECT_TRUE(
      held->replicas[0].engine->PredictInto(x.data(), 1, out.data()).ok());

  auto other = CompileSnapshot(MakeNet(4), {16}, 1);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(registry.Publish("a", std::move(other).value()).ok());
  EXPECT_EQ(registry.ModelNames(), (std::vector<std::string>{"a", "m"}));
}

TEST(ModelRegistryTest, PublishAndCompileErrors) {
  ModelRegistry registry;
  Sequential net = MakeNet(1);
  EXPECT_EQ(CompileSnapshot(net, {16}, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CompileSnapshot(net, {4, 4}, 1).status().code(),
            StatusCode::kInvalidArgument);  // shape does not thread through

  EXPECT_EQ(registry.Publish("m", nullptr).status().code(),
            StatusCode::kInvalidArgument);
  auto snap = CompileSnapshot(net, {16}, 1);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(registry.Publish("", std::move(snap).value()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelRegistryTest, ConcurrentPublishAndAcquireAreRaceFree) {
  // The TSan target for the registry alone: one publisher hot-swapping in
  // a loop while readers acquire and *use* snapshots. Each reader drives
  // its own replica index, so engine workspaces are never shared.
  constexpr int kReaders = 3;
  ModelRegistry registry;
  auto first = CompileSnapshot(MakeNet(10), {16}, kReaders);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(registry.Publish("m", std::move(first).value()).ok());

  std::atomic<bool> stop{false};
  std::thread publisher([&registry, &stop]() {
    for (int i = 0; i < 8; ++i) {
      auto snap = CompileSnapshot(MakeNet(11 + static_cast<uint64_t>(i)),
                                  {16}, kReaders);
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE(registry.Publish("m", std::move(snap).value()).ok());
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&registry, &stop, r]() {
      Rng rng(100 + static_cast<uint64_t>(r));
      Tensor x({16});
      Tensor out({1, 4});
      int64_t last_version = 0;
      while (!stop.load()) {
        std::shared_ptr<ModelSnapshot> snap = registry.Acquire("m");
        ASSERT_NE(snap, nullptr);
        EXPECT_GE(snap->version, last_version);  // versions only move up
        last_version = snap->version;
        x.FillGaussian(&rng, 1.0f);
        ASSERT_TRUE(snap->replicas[static_cast<size_t>(r)]
                        .engine->PredictInto(x.data(), 1, out.data())
                        .ok());
      }
    });
  }
  publisher.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(registry.LatestVersion("m"), 9);
  EXPECT_EQ(registry.swap_count(), 8);
}

// ------------------------------------------------------- config validation

TEST(ServerConfigTest, ValidateCatchesEachBadField) {
  EXPECT_TRUE(ValidateServerConfig(ServerConfig{}).ok());

  ServerConfig c;
  c.workers = 0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.batch.max_batch = 0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.queue_capacity = 3;
  c.batch.max_batch = 8;  // queue bound must fit one full batch
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.batch.max_delay_ms = -0.5;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.default_deadline_ms = 0.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.default_deadline_ms = 1.0 / 0.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.cost.fixed_ms = -1.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.cost.per_example_ms = -1.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  ModelRegistry registry;
  c = ServerConfig{};
  c.workers = 0;
  EXPECT_FALSE(Server::Create(&registry, c).ok());
  EXPECT_FALSE(Server::Create(nullptr, ServerConfig{}).ok());
}

// ------------------------------------------------------------- admission

TEST(ServerTest, ShedsWhenQueueIsFullInsteadOfQueuingUnboundedly) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.batch.max_batch = 4;
  config.batch.max_delay_ms = 1000.0;  // only full batches dispatch
  config.default_deadline_ms = 1e6;    // deadline never the limiter here
  config.cost = {1.0, 0.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(2);
  Tensor x({16});
  int admitted = 0, shed = 0;
  for (int i = 0; i < 10; ++i) {
    x.FillGaussian(&rng, 1.0f);
    const Server::SubmitResult r = server->Submit("m", x, 0.0);
    if (r.outcome == Server::Outcome::kAdmitted) {
      ++admitted;
    } else {
      EXPECT_EQ(r.outcome, Server::Outcome::kShedQueueFull) << "i=" << i;
      ++shed;
    }
  }
  // First batch of 4 dispatches on the spot (frees the queue), next 4
  // wait for the busy worker, and the rest bounce off the full queue.
  EXPECT_EQ(admitted, 8);
  EXPECT_EQ(shed, 2);
  server->Drain();
  EXPECT_EQ(server->completions().size(), 8u);  // no admitted request lost

  const MetricsReport m = server->metrics();
  EXPECT_EQ(m.Get("serve.offered"), 10.0);
  EXPECT_EQ(m.Get("serve.admitted"), 8.0);
  EXPECT_EQ(m.Get("serve.shed.queue_full"), 2.0);
  EXPECT_EQ(m.Get("serve.batches"), 2.0);
  EXPECT_EQ(m.Get("serve.latency.count"), 8.0);
}

TEST(ServerTest, ShedsWhenPredictedFinishMissesDeadline) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.batch.max_batch = 1;
  config.batch.max_delay_ms = 0.0;
  config.default_deadline_ms = 15.0;
  config.cost = {10.0, 0.0};  // each dispatch occupies the worker 10ms
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(3);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  EXPECT_EQ(server->Submit("m", x, 0.0).outcome, Server::Outcome::kAdmitted);
  // The worker is now busy until t=10; a second request would finish at
  // t=20, past its t=15 deadline — shed at admission, not queued to fail.
  EXPECT_EQ(server->Submit("m", x, 0.0).outcome,
            Server::Outcome::kShedDeadline);
  // By t=6 the worker frees at 10 and a new request's deadline is 21.
  EXPECT_EQ(server->Submit("m", x, 6.0).outcome, Server::Outcome::kAdmitted);
  server->Drain();
  EXPECT_EQ(server->completions().size(), 2u);
  EXPECT_EQ(server->metrics().Get("serve.shed.deadline_infeasible"), 1.0);
  EXPECT_EQ(server->metrics().Get("serve.deadline_missed"), 0.0);
}

TEST(AdmissionTest, StructuredShedReasonsAndNames) {
  EXPECT_STREQ(ShedReasonName(ShedReason::kQueueFull), "queue_full");
  EXPECT_STREQ(ShedReasonName(ShedReason::kDeadlineInfeasible),
               "deadline_infeasible");
  EXPECT_STREQ(ShedReasonName(ShedReason::kDraining), "draining");
  EXPECT_STREQ(ShedReasonName(ShedReason::kUnhealthyReplica),
               "unhealthy_replica");

  // The pure decision function attributes each shed to exactly one
  // reason, tested in priority order: draining trumps queue state,
  // queue bound trumps deadline feasibility.
  ServerConfig config;
  config.queue_capacity = 2;
  config.batch.max_batch = 1;
  config.cost = {10.0, 0.0};
  AdmissionInputs in;
  in.prospective_batch = 1;
  in.deadline_budget_ms = 100.0;
  const auto decide = [&] {
    return DecideAdmission(config.queue_capacity, config.cost, in);
  };
  EXPECT_EQ(decide(), AdmissionDecision::kAdmit);
  in.draining = true;
  in.queue_depth = 2;
  EXPECT_EQ(decide(), AdmissionDecision::kShedDraining);
  in.draining = false;
  EXPECT_EQ(decide(), AdmissionDecision::kShedQueueFull);
  in.queue_depth = 0;
  in.deadline_budget_ms = 5.0;  // modeled 10ms service can never make it
  EXPECT_EQ(decide(), AdmissionDecision::kShedDeadline);
}

TEST(ServerTest, DrainingShedsNewWorkButFinishesQueuedWork) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = 4;
  config.batch.max_delay_ms = 1000.0;  // hold the batch open
  config.default_deadline_ms = 1e6;
  config.cost = {1.0, 0.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(4);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  EXPECT_EQ(server->Submit("m", x, 0.0).outcome, Server::Outcome::kAdmitted);
  EXPECT_EQ(server->Submit("m", x, 0.0).outcome, Server::Outcome::kAdmitted);
  EXPECT_EQ(server->queue_depth(), 2);

  server->SetDraining(true);
  EXPECT_TRUE(server->draining());
  EXPECT_EQ(server->Submit("m", x, 1.0).outcome,
            Server::Outcome::kShedDraining);
  EXPECT_EQ(server->metrics().Get("serve.shed.draining"), 1.0);

  // The graceful half of a scale-down: everything admitted before the
  // drain still completes.
  server->Drain();
  EXPECT_EQ(server->completions().size(), 2u);
  EXPECT_EQ(server->queue_depth(), 0);

  server->SetDraining(false);
  // Drain advanced the simulated clock; resume past it.
  EXPECT_EQ(server->Submit("m", x, 2000.0).outcome,
            Server::Outcome::kAdmitted);
}

TEST(ServerTest, DropQueuedLosesOnlyUndispatchedRequests) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = 2;
  config.batch.max_delay_ms = 1000.0;
  config.default_deadline_ms = 1e6;
  config.cost = {1.0, 0.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(5);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  // First two form a full batch and dispatch immediately; the third
  // stays queued behind the busy worker.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(server->Submit("m", x, 0.0).outcome,
              Server::Outcome::kAdmitted);
  }
  EXPECT_EQ(server->queue_depth(), 1);
  EXPECT_EQ(server->DropQueued(), 1);  // the crash loses its queue...
  EXPECT_EQ(server->queue_depth(), 0);
  EXPECT_EQ(server->DropQueued(), 0);
  server->Drain();
  // ...but not the already-dispatched batch.
  EXPECT_EQ(server->completions().size(), 2u);
}

TEST(ServerTest, CostScaleSlowsFutureDecisionsOnly) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = 1;
  config.batch.max_delay_ms = 5.0;  // irrelevant: a batch of one is full
  config.default_deadline_ms = 1e6;
  config.cost = {2.0, 1.0};
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(1), {16}).ok());

  Rng rng(6);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);
  EXPECT_EQ(server->Submit("m", x, 0.0).outcome, Server::Outcome::kAdmitted);
  server->AdvanceTo(10.0);
  ASSERT_EQ(server->completions().size(), 1u);
  // Healthy modeled service: fixed 2 + per-example 1.
  EXPECT_DOUBLE_EQ(server->completions()[0].finish_ms, 3.0);

  // A gray failure quadruples the modeled cost for future dispatches.
  server->SetCostScale(4.0);
  EXPECT_DOUBLE_EQ(server->cost_scale(), 4.0);
  EXPECT_EQ(server->Submit("m", x, 10.0).outcome,
            Server::Outcome::kAdmitted);
  EXPECT_DOUBLE_EQ(server->earliest_worker_free_ms(), 22.0);  // 10 + 4*3
  server->Drain();
  ASSERT_EQ(server->completions().size(), 2u);
  EXPECT_DOUBLE_EQ(server->completions()[1].finish_ms, 22.0);

  server->SetCostScale(1.0);
  EXPECT_EQ(server->Submit("m", x, 30.0).outcome,
            Server::Outcome::kAdmitted);
  EXPECT_EQ(server->queue_depth(), 0);
  server->Drain();
  ASSERT_EQ(server->completions().size(), 3u);
  EXPECT_DOUBLE_EQ(server->completions()[2].finish_ms, 33.0);
  // With max_batch 1 every request dispatches alone at its own arrival
  // (the worker is idle each time), never after the delay budget.
  for (const Server::Completion& c : server->completions()) {
    EXPECT_EQ(c.batch_size, 1);
    EXPECT_DOUBLE_EQ(c.dispatch_ms, c.arrival_ms);
  }
}

// ------------------------------------------------------------ batch policy

/// One worker and a zero cost model: a batch finishes the instant it
/// starts, so batch.max_batch and batch.max_delay_ms alone decide when
/// each batch dispatches.
std::unique_ptr<Server> MakeBatchPolicyServer(ModelRegistry* registry,
                                              const Sequential& net,
                                              int64_t max_batch,
                                              double max_delay_ms) {
  ServerConfig config;
  config.workers = 1;
  config.batch.max_batch = max_batch;
  config.batch.max_delay_ms = max_delay_ms;
  config.default_deadline_ms = 1e6;
  config.cost = {0.0, 0.0};
  auto created = Server::Create(registry, config);
  EXPECT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  EXPECT_TRUE(server->Publish("m", net, {16}).ok());
  return server;
}

TEST(ServerTest, BatchPolicyDispatchesOnFillOrOldestDelay) {
  const Sequential net = MakeNet(41);
  ModelRegistry registry;
  std::unique_ptr<Server> server =
      MakeBatchPolicyServer(&registry, net, /*max_batch=*/4,
                            /*max_delay_ms=*/1.0);
  server->Drain();  // nothing queued: must not run an empty batch
  EXPECT_TRUE(server->completions().empty());
  EXPECT_EQ(server->metrics().Get("serve.batches"), 0.0);

  Rng rng(42);
  std::vector<Tensor> examples;
  for (int i = 0; i < 9; ++i) {
    Tensor e({16});
    e.FillGaussian(&rng, 1.0f);
    examples.push_back(std::move(e));
  }
  const auto submit = [&](int i, double t) {
    EXPECT_EQ(server->Submit("m", examples[static_cast<size_t>(i)], t).outcome,
              Server::Outcome::kAdmitted);
  };

  // Three arrivals, then the delay budget expires: one batch of 3 at the
  // oldest arrival + max_delay_ms, not before.
  submit(0, 0.0);
  submit(1, 0.1);
  submit(2, 0.2);
  EXPECT_EQ(server->queue_depth(), 3);
  EXPECT_DOUBLE_EQ(server->NextActionableMs(), 1.0);
  server->AdvanceTo(0.5);
  EXPECT_EQ(server->queue_depth(), 3);
  server->AdvanceTo(1.0);  // inclusive: exactly the expiry fires the batch
  EXPECT_EQ(server->queue_depth(), 0);
  ASSERT_EQ(server->completions().size(), 3u);
  EXPECT_DOUBLE_EQ(server->completions()[0].dispatch_ms, 1.0);
  EXPECT_EQ(server->completions()[0].batch_size, 3);

  // Four arrivals at one tick: the one that fills the batch dispatches it.
  for (int i = 3; i < 6; ++i) submit(i, 3.0);
  EXPECT_EQ(server->queue_depth(), 3);
  submit(6, 3.0);
  EXPECT_EQ(server->queue_depth(), 0);
  ASSERT_EQ(server->completions().size(), 7u);
  EXPECT_DOUBLE_EQ(server->completions()[3].dispatch_ms, 3.0);
  EXPECT_EQ(server->completions()[3].batch_size, 4);

  // Drain dispatches the remainder when its delay expires; a second
  // Drain finds nothing to do.
  submit(7, 4.0);
  submit(8, 4.1);
  server->Drain();
  ASSERT_EQ(server->completions().size(), 9u);
  EXPECT_DOUBLE_EQ(server->completions()[7].dispatch_ms, 5.0);
  EXPECT_EQ(server->completions()[7].batch_size, 2);
  server->Drain();
  EXPECT_EQ(server->completions().size(), 9u);
  EXPECT_EQ(server->metrics().Get("serve.batches"), 3.0);

  // Batched outputs equal one-example predictions, bitwise.
  auto compiled = InferenceEngine::Compile(net, {16});
  ASSERT_TRUE(compiled.ok());
  InferenceEngine engine = std::move(compiled).value();
  for (const Server::Completion& c : server->completions()) {
    ASSERT_LT(c.id, 9);
    Tensor one({1, 16});
    const Tensor& src = examples[static_cast<size_t>(c.id)];
    std::copy(src.data(), src.data() + 16, one.data());
    const Tensor want = std::move(engine.Predict(one)).value();
    EXPECT_TRUE(BitwiseEqual(c.output.Reshaped({1, 4}), want)) << c.id;
  }
}

TEST(ServerTest, SameTickArrivalJoinsTheBatchExpiringOnIt) {
  // The FIFO path's same-tick rule: a batch whose delay expires exactly
  // at an arrival dispatches together with that arrival, so a later
  // arrival at the same tick opens a new batch.
  const Sequential net = MakeNet(43);
  Rng rng(44);
  Tensor x({16});
  x.FillGaussian(&rng, 1.0f);

  ModelRegistry registry;
  std::unique_ptr<Server> server =
      MakeBatchPolicyServer(&registry, net, /*max_batch=*/4,
                            /*max_delay_ms=*/1.0);
  server->Submit("m", x, 0.0);
  server->Submit("m", x, 1.0);  // 0.0 + 1.0 expires now: joins, dispatches
  EXPECT_EQ(server->queue_depth(), 0);
  ASSERT_EQ(server->completions().size(), 2u);
  EXPECT_EQ(server->completions()[0].batch_size, 2);
  EXPECT_DOUBLE_EQ(server->completions()[0].dispatch_ms, 1.0);
  server->Submit("m", x, 1.0);  // same tick, after that dispatch
  EXPECT_EQ(server->queue_depth(), 1);
  // A batch whose delay expired strictly before an arrival dispatches
  // first, at its expiry rather than at the arrival.
  server->Submit("m", x, 2.5);
  ASSERT_EQ(server->completions().size(), 3u);
  EXPECT_EQ(server->completions()[2].batch_size, 1);
  EXPECT_DOUBLE_EQ(server->completions()[2].dispatch_ms, 2.0);
  EXPECT_EQ(server->queue_depth(), 1);
  server->Drain();
  ASSERT_EQ(server->completions().size(), 4u);
  EXPECT_DOUBLE_EQ(server->completions()[3].dispatch_ms, 3.5);

  // Zero delay budget and an idle worker: each same-tick arrival is its
  // own batch.
  ModelRegistry zero_registry;
  std::unique_ptr<Server> zero =
      MakeBatchPolicyServer(&zero_registry, net, /*max_batch=*/4,
                            /*max_delay_ms=*/0.0);
  for (int i = 0; i < 3; ++i) {
    zero->Submit("m", x, 1.0);
    EXPECT_EQ(zero->queue_depth(), 0) << "submit " << i;
  }
  ASSERT_EQ(zero->completions().size(), 3u);
  for (const Server::Completion& c : zero->completions()) {
    EXPECT_EQ(c.batch_size, 1);
    EXPECT_DOUBLE_EQ(c.dispatch_ms, 1.0);
  }
}

TEST(ServerTest, UnknownModelIsReported) {
  ModelRegistry registry;
  auto created = Server::Create(&registry, ServerConfig{});
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  Tensor x({16});
  EXPECT_EQ(server->Submit("ghost", x, 0.0).outcome,
            Server::Outcome::kNoSuchModel);
  EXPECT_EQ(server->metrics().Get("serve.no_such_model"), 1.0);
}

// ------------------------------------------------------ hot-swap under load

struct SwapTrace {
  std::vector<Server::Outcome> outcomes;
  std::vector<int64_t> versions;          // per completion, dispatch order
  std::vector<double> finishes;           // per completion
  std::vector<int64_t> ids;               // per completion
  std::vector<std::vector<float>> outputs;
  MetricsReport metrics;
};

/// Drives 200 requests with a v1→v2 publish before request 100 and
/// returns the full observable trace.
SwapTrace RunSwapScenario(const Sequential& net1, const Sequential& net2,
                          const std::vector<Tensor>& inputs) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.batch.max_batch = 4;
  config.batch.max_delay_ms = 0.5;
  config.default_deadline_ms = 1e6;  // nothing sheds; we count completions
  auto created = Server::Create(&registry, config);
  EXPECT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  EXPECT_TRUE(server->Publish("m", net1, {16}).ok());

  SwapTrace trace;
  double t = 0.0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    t += 0.05;
    if (i == 100) EXPECT_TRUE(server->Publish("m", net2, {16}).ok());
    trace.outcomes.push_back(server->Submit("m", inputs[i], t).outcome);
  }
  server->Drain();
  for (const Server::Completion& c : server->completions()) {
    trace.versions.push_back(c.version);
    trace.finishes.push_back(c.finish_ms);
    trace.ids.push_back(c.id);
    trace.outputs.emplace_back(c.output.data(),
                               c.output.data() + c.output.size());
  }
  trace.metrics = server->metrics();
  return trace;
}

TEST(ServerTest, HotSwapUnderLoadIsLosslessAndBitwiseVersionFaithful) {
  const Sequential net1 = MakeNet(21);
  const Sequential net2 = MakeNet(22);
  std::vector<Tensor> inputs;
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    Tensor x({16});
    x.FillGaussian(&rng, 1.0f);
    inputs.push_back(std::move(x));
  }
  // Per-version references: the engine's row outputs are bitwise equal to
  // single-example predictions, so a per-request reference is exact.
  auto ref1 = InferenceEngine::Compile(net1, {16});
  auto ref2 = InferenceEngine::Compile(net2, {16});
  ASSERT_TRUE(ref1.ok() && ref2.ok());
  InferenceEngine engines[2] = {std::move(ref1).value(),
                                std::move(ref2).value()};

  SwapTrace first;
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    SwapTrace trace = RunSwapScenario(net1, net2, inputs);

    // (a) zero requests lost across the swap...
    ASSERT_EQ(trace.outcomes.size(), 200u);
    for (size_t i = 0; i < trace.outcomes.size(); ++i) {
      EXPECT_EQ(trace.outcomes[i], Server::Outcome::kAdmitted) << i;
    }
    ASSERT_EQ(trace.versions.size(), 200u);
    EXPECT_EQ(trace.metrics.Get("serve.admitted"), 200.0);
    EXPECT_EQ(trace.metrics.Get("serve.swaps"), 1.0);
    // ...and both versions actually served.
    EXPECT_GT(trace.metrics.Get("serve.m.served_v1"), 0.0);
    EXPECT_GT(trace.metrics.Get("serve.m.served_v2"), 0.0);

    for (size_t i = 0; i < trace.versions.size(); ++i) {
      const int64_t id = trace.ids[i];
      // Version binding happens at admission: requests offered before the
      // publish stay on v1, later ones are v2, with no mixing.
      EXPECT_EQ(trace.versions[i], id < 100 ? 1 : 2) << "id=" << id;
      // Output is bitwise the bound version's prediction.
      Tensor one({1, 16});
      const Tensor& src = inputs[static_cast<size_t>(id)];
      std::copy(src.data(), src.data() + 16, one.data());
      const Tensor want =
          std::move(engines[trace.versions[i] - 1].Predict(one)).value();
      ASSERT_EQ(trace.outputs[i].size(), 4u);
      EXPECT_EQ(std::memcmp(trace.outputs[i].data(), want.data(),
                            4 * sizeof(float)),
                0)
          << "id=" << id << " threads=" << threads;
    }

    // (c) the whole trace — decisions, schedule, outputs — is identical
    // at every thread count.
    if (threads == 1) {
      first = std::move(trace);
    } else {
      EXPECT_EQ(trace.versions, first.versions) << "threads=" << threads;
      EXPECT_EQ(trace.finishes, first.finishes) << "threads=" << threads;
      EXPECT_EQ(trace.ids, first.ids) << "threads=" << threads;
      EXPECT_EQ(trace.outputs, first.outputs) << "threads=" << threads;
    }
  }
  RuntimeConfig::SetThreads(1);
}

TEST(ServerTest, ConcurrentPublishDuringServingKeepsVersionsBitwise) {
  // The end-to-end TSan scenario: the serving loop runs on this thread
  // while another thread hot-swaps between two networks. Which version a
  // request binds depends on the race — but whichever it binds, its
  // output must be bitwise that version's prediction.
  const Sequential nets[2] = {MakeNet(31), MakeNet(32)};
  auto ref0 = InferenceEngine::Compile(nets[0], {16});
  auto ref1 = InferenceEngine::Compile(nets[1], {16});
  ASSERT_TRUE(ref0.ok() && ref1.ok());
  InferenceEngine refs[2] = {std::move(ref0).value(),
                             std::move(ref1).value()};

  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.batch.max_batch = 4;
  config.batch.max_delay_ms = 0.2;
  config.default_deadline_ms = 1e6;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", nets[0], {16}).ok());

  std::thread swapper([&server, &nets]() {
    for (int i = 0; i < 6; ++i) {
      // v2 binds nets[1], v3 nets[0], ... — version v serves nets[1 - v%2].
      ASSERT_TRUE(server->Publish("m", nets[(i + 1) % 2], {16}).ok());
    }
  });

  std::vector<Tensor> inputs;
  Rng rng(33);
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    Tensor x({16});
    x.FillGaussian(&rng, 1.0f);
    t += 0.05;
    ASSERT_EQ(server->Submit("m", x, t).outcome, Server::Outcome::kAdmitted);
    inputs.push_back(std::move(x));
  }
  swapper.join();
  server->Drain();

  ASSERT_EQ(server->completions().size(), 300u);
  for (const Server::Completion& c : server->completions()) {
    ASSERT_GE(c.version, 1);
    ASSERT_LE(c.version, 7);
    InferenceEngine& ref = refs[1 - c.version % 2];
    Tensor one({1, 16});
    const Tensor& src = inputs[static_cast<size_t>(c.id)];
    std::copy(src.data(), src.data() + 16, one.data());
    const Tensor want = std::move(ref.Predict(one)).value();
    EXPECT_EQ(std::memcmp(c.output.data(), want.data(), 4 * sizeof(float)),
              0)
        << "id=" << c.id << " version=" << c.version;
  }
  EXPECT_EQ(server->registry()->swap_count(), 6);
}

// -------------------------------------------------------- load harnesses

TEST(LoadGenTest, OpenLoopReplaysBitForBit) {
  auto run = []() {
    ModelRegistry registry;
    ServerConfig config;
    config.workers = 2;
    config.queue_capacity = 32;
    config.batch.max_batch = 8;
    config.batch.max_delay_ms = 0.3;
    config.default_deadline_ms = 5.0;
    auto created = Server::Create(&registry, config);
    EXPECT_TRUE(created.ok());
    std::unique_ptr<Server> server = std::move(created).value();
    EXPECT_TRUE(server->Publish("m", MakeNet(41), {16}).ok());
    OpenLoopConfig load;
    load.seed = 5;
    load.requests = 300;
    load.rate_rps = 20000.0;  // hot enough that some requests shed
    load.model = "m";
    LoadReport report = RunOpenLoop(server.get(), load);
    SwapTrace trace;  // reuse the container for the comparison
    for (const Server::Completion& c : server->completions()) {
      trace.versions.push_back(c.version);
      trace.finishes.push_back(c.finish_ms);
      trace.ids.push_back(c.id);
      trace.outputs.emplace_back(c.output.data(),
                                 c.output.data() + c.output.size());
    }
    return std::make_pair(report, trace);
  };
  auto [r1, t1] = run();
  auto [r2, t2] = run();

  EXPECT_EQ(r1.offered, 300);
  EXPECT_EQ(r1.offered, r1.admitted + r1.shed);
  EXPECT_EQ(r1.completed, r1.admitted);  // every admitted request finishes
  EXPECT_GT(r1.completed, 0);

  // Bit-for-bit replay: same counts, same schedule, same outputs.
  EXPECT_EQ(r1.admitted, r2.admitted);
  EXPECT_EQ(r1.shed, r2.shed);
  EXPECT_EQ(r1.deadline_missed, r2.deadline_missed);
  EXPECT_EQ(r1.duration_ms, r2.duration_ms);
  EXPECT_EQ(r1.latency.count(), r2.latency.count());
  EXPECT_EQ(r1.latency.sum_ms(), r2.latency.sum_ms());
  EXPECT_EQ(t1.ids, t2.ids);
  EXPECT_EQ(t1.versions, t2.versions);
  EXPECT_EQ(t1.finishes, t2.finishes);
  EXPECT_EQ(t1.outputs, t2.outputs);
}

// ------------------------------------------------- slot scheduler QoS

TEST(ServerConfigTest, ValidateCatchesBadQosFields) {
  ServerConfig c;
  c.scheduler.use_slots = true;
  EXPECT_TRUE(ValidateServerConfig(c).ok());

  c = ServerConfig{};
  c.scheduler.slots_per_worker = -1;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.priority_classes = 0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.default_policy.burst = 0.5;  // must hold a whole request
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.default_policy.weight = 0.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.default_policy.rate_rps = 1.0 / 0.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.default_policy.priority = 1;  // out of [0, priority_classes)
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.tenants[""] = TenantPolicy{};
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.priority_classes = 2;
  c.scheduler.tenants["a"].priority = 2;  // valid classes are {0, 1}
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);

  c = ServerConfig{};
  c.scheduler.tenants["a"].weight = -1.0;
  EXPECT_EQ(ValidateServerConfig(c).code(), StatusCode::kInvalidArgument);
}

SlotRequest MakeSlotRequest(int64_t id, const std::string& tenant,
                            int priority = 0) {
  SlotRequest r;
  r.id = id;
  r.tenant = tenant;
  r.priority = priority;
  return r;
}

TEST(TenantSchedulerTest, TokenBucketGatesAndRefillsDeterministically) {
  SlotSchedulerConfig config;
  config.use_slots = true;
  config.default_policy.rate_rps = 100.0;  // one token per 10 simulated ms
  config.default_policy.burst = 1.0;
  TenantScheduler sched(config);
  for (int64_t id = 0; id < 3; ++id) {
    sched.Enqueue(MakeSlotRequest(id, "a"));
  }
  EXPECT_EQ(sched.depth(), 3);

  // The bucket starts full: the first pick is free, then the quota gates.
  auto first = sched.PickNext(0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 0);
  EXPECT_FALSE(sched.PickNext(5.0).has_value());  // only 0.5 tokens back
  EXPECT_DOUBLE_EQ(sched.NextEligibleMs(5.0), 10.0);

  auto second = sched.PickNext(10.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 1);
  EXPECT_DOUBLE_EQ(sched.NextEligibleMs(10.0), 20.0);
  // The backlog-aware horizon sees the still-queued request ahead: one
  // more request behind it needs two token arrivals from an empty bucket.
  EXPECT_DOUBLE_EQ(sched.QuotaBacklogMs("a", 10.0), 30.0);
  EXPECT_EQ(sched.served("a"), 2);
  EXPECT_EQ(sched.depth(), 1);
}

TEST(TenantSchedulerTest, DeficitWeightedFairSharesFollowWeights) {
  SlotSchedulerConfig config;
  config.use_slots = true;
  config.enforce_quotas = false;
  config.tenants["a"].weight = 2.0;
  config.tenants["b"].weight = 1.0;
  TenantScheduler sched(config);
  for (int64_t id = 0; id < 60; ++id) {
    sched.Enqueue(MakeSlotRequest(id, id % 2 == 0 ? "a" : "b"));
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(sched.PickNext(0.0).has_value()) << i;
  }
  // Both tenants stayed backlogged the whole time, so DWFQ hands out
  // slots in exact weight proportion: 2/3 to a, 1/3 to b.
  EXPECT_EQ(sched.served("a"), 20);
  EXPECT_EQ(sched.served("b"), 10);
}

TEST(TenantSchedulerTest, StrictPriorityYieldsOnlyToEligibleWork) {
  SlotSchedulerConfig config;
  config.use_slots = true;
  config.priority_classes = 2;
  config.tenants["hi"].priority = 0;
  config.tenants["hi"].rate_rps = 100.0;
  config.tenants["hi"].burst = 1.0;
  config.tenants["lo"].priority = 1;
  TenantScheduler sched(config);
  sched.Enqueue(MakeSlotRequest(0, "lo", 1));
  sched.Enqueue(MakeSlotRequest(1, "hi", 0));
  sched.Enqueue(MakeSlotRequest(2, "hi", 0));
  sched.Enqueue(MakeSlotRequest(3, "lo", 1));

  // Class 0 wins despite the higher request id...
  auto p1 = sched.PickNext(0.0);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->tenant, "hi");
  // ...but a quota-blocked class 0 does not hold class 1 hostage:
  // priority is strict over *eligible* work only.
  auto p2 = sched.PickNext(0.0);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->tenant, "lo");
  // Once the bucket refills, class 0 preempts again.
  auto p3 = sched.PickNext(10.0);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->tenant, "hi");
}

TEST(TenantSchedulerTest, FifoControlServesGloballyByRequestId) {
  SlotSchedulerConfig config;
  config.use_slots = true;
  config.fair_queueing = false;
  config.enforce_quotas = false;
  config.tenants["a"].weight = 5.0;  // ignored by the FIFO control path
  TenantScheduler sched(config);
  sched.Enqueue(MakeSlotRequest(0, "a"));
  sched.Enqueue(MakeSlotRequest(1, "b"));
  sched.Enqueue(MakeSlotRequest(2, "a"));
  for (int64_t want = 0; want < 3; ++want) {
    auto pick = sched.PickNext(0.0);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->id, want);
  }
}

// ------------------------------------------- continuous batching slots

struct SlotTrace {
  std::vector<int64_t> ids;
  std::vector<double> dispatches;
  std::vector<double> finishes;
  std::vector<double> arrivals;
  std::vector<int> workers;
  std::vector<int64_t> batch_sizes;
  std::vector<std::vector<float>> outputs;
  std::vector<std::pair<double, int>> occupancy;
  int peak_occupancy = 0;
  LoadReport report;
};

/// Sustained 1.5x-overload open loop against the slot scheduler.
SlotTrace RunSlotScenario() {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 512;  // hold the full overload backlog
  config.batch.max_batch = 4;   // = slot lanes per worker
  config.default_deadline_ms = 1e6;
  config.scheduler.use_slots = true;
  auto created = Server::Create(&registry, config);
  EXPECT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  EXPECT_TRUE(server->Publish("m", MakeNet(61), {16}).ok());

  // Capacity: 2 workers * 4 lanes / 0.09 ms per step ~ 89 req/ms.
  OpenLoopConfig load;
  load.seed = 9;
  load.requests = 300;
  load.rate_rps = 133'000.0;  // ~1.5x capacity: the pool never starves
  load.model = "m";

  SlotTrace trace;
  trace.report = RunOpenLoop(server.get(), load);
  for (const Server::Completion& c : server->completions()) {
    trace.ids.push_back(c.id);
    trace.dispatches.push_back(c.dispatch_ms);
    trace.finishes.push_back(c.finish_ms);
    trace.arrivals.push_back(c.arrival_ms);
    trace.workers.push_back(c.worker);
    trace.batch_sizes.push_back(c.batch_size);
    trace.outputs.emplace_back(c.output.data(),
                               c.output.data() + c.output.size());
  }
  EXPECT_NE(server->slot_pool(), nullptr);
  trace.occupancy = server->slot_pool()->occupancy_timeline();
  trace.peak_occupancy = server->slot_pool()->peak_occupancy();
  return trace;
}

TEST(SlotServerTest, ContinuousBatchingNeverDrainsAndReplaysBitwise) {
  SlotTrace first;
  for (int threads : {1, 2, 8}) {
    RuntimeConfig::SetThreads(threads);
    SlotTrace trace = RunSlotScenario();

    ASSERT_EQ(trace.report.offered, 300);
    EXPECT_EQ(trace.report.shed, 0);
    EXPECT_EQ(trace.report.completed, 300);
    // Under sustained overload every lane fills.
    EXPECT_EQ(trace.peak_occupancy, 8);

    // The continuous-batching acceptance: once load is established, slot
    // occupancy never touches zero — freed lanes refill the same instant
    // their step completes, with no drain barrier between batches.
    ASSERT_EQ(trace.ids.size(), 300u);
    double t_lo = 0.0;
    for (size_t i = 0; i < trace.ids.size(); ++i) {
      if (trace.ids[i] >= 20) t_lo = std::max(t_lo, trace.dispatches[i]);
      if (trace.ids[i] >= 21) break;
    }
    const double t_hi =
        *std::max_element(trace.dispatches.begin(), trace.dispatches.end());
    int checked = 0;
    for (const auto& [t, occ] : trace.occupancy) {
      if (t < t_lo || t > t_hi) continue;
      EXPECT_GT(occ, 0) << "pool drained at t=" << t;
      ++checked;
    }
    EXPECT_GT(checked, 50);

    // A request that arrived mid-step rides the very next step of the
    // same worker the instant the in-flight one finishes.
    bool joined_mid_step = false;
    for (size_t i = 0; i < trace.ids.size() && !joined_mid_step; ++i) {
      for (size_t j = 0; j < trace.ids.size(); ++j) {
        if (trace.workers[j] != trace.workers[i]) continue;
        if (trace.dispatches[j] != trace.finishes[i]) continue;
        if (trace.arrivals[j] > trace.dispatches[i] &&
            trace.arrivals[j] < trace.finishes[i]) {
          joined_mid_step = true;
          break;
        }
      }
    }
    EXPECT_TRUE(joined_mid_step);

    // Bit-for-bit replay at every thread count: the whole schedule, the
    // outputs, and the occupancy timeline.
    if (threads == 1) {
      first = std::move(trace);
    } else {
      EXPECT_EQ(trace.ids, first.ids) << "threads=" << threads;
      EXPECT_EQ(trace.dispatches, first.dispatches) << "threads=" << threads;
      EXPECT_EQ(trace.finishes, first.finishes) << "threads=" << threads;
      EXPECT_EQ(trace.workers, first.workers) << "threads=" << threads;
      EXPECT_EQ(trace.batch_sizes, first.batch_sizes)
          << "threads=" << threads;
      EXPECT_EQ(trace.outputs, first.outputs) << "threads=" << threads;
      EXPECT_EQ(trace.occupancy, first.occupancy) << "threads=" << threads;
    }
  }
  RuntimeConfig::SetThreads(1);
}

// --------------------------------------------------- multi-tenant QoS

/// Hot-tenant overload: t0 offers 8x the load of t1..t3; per-tenant
/// quotas cap everyone at 1500 rps against ~8000 rps capacity.
TenantedLoadReport RunHotTenantMix(bool fair) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 5.0;
  config.cost.fixed_ms = 0.2;
  config.cost.per_example_ms = 0.2;  // step(4) = 1 ms -> ~8 req/ms fleet
  config.scheduler.use_slots = true;
  config.scheduler.fair_queueing = fair;
  config.scheduler.enforce_quotas = fair;
  config.scheduler.default_policy.rate_rps = 1500.0;
  config.scheduler.default_policy.burst = 4.0;
  auto created = Server::Create(&registry, config);
  EXPECT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  EXPECT_TRUE(server->Publish("m", MakeNet(71), {16}).ok());

  TenantedLoadConfig load;
  load.seed = 11;
  load.requests = 600;
  load.rate_rps = 11'000.0;  // hot tenant ~8000, cold tenants ~1000 each
  load.deadline_ms = 5.0;
  load.model = "m";
  load.mix = HotTenantMix(4, 8.0);
  return RunTenantedOpenLoop(server.get(), load);
}

TEST(SlotServerTest, WeightedFairnessBoundsHotTenantSkew) {
  // With DWFQ + quotas on, the hot tenant's excess converts into sheds
  // charged to itself: per-tenant goodput stays within a small ratio.
  const TenantedLoadReport fair = RunHotTenantMix(/*fair=*/true);
  ASSERT_EQ(fair.by_tenant.size(), 4u);
  for (const auto& [tenant, per] : fair.by_tenant) {
    EXPECT_GT(per.completed - per.deadline_missed, 0) << tenant;
  }
  EXPECT_LE(fair.max_min_goodput_ratio, 2.0)
      << "WFQ + quotas must bound tenant goodput skew";

  // Control: with fair queueing and quotas off, service follows arrival
  // share and the hot tenant starves the rest (~8:1).
  const TenantedLoadReport fifo = RunHotTenantMix(/*fair=*/false);
  EXPECT_GT(fifo.max_min_goodput_ratio, 3.0)
      << "FIFO control should show the starvation WFQ prevents";
  EXPECT_GT(fair.max_min_goodput_ratio, 0.0);
}

TEST(SlotServerTest, TenantStatsAndMetricsAccountEveryRequest) {
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 2;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 1e6;
  config.scheduler.use_slots = true;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(81), {16}).ok());

  TenantedLoadConfig load;
  load.seed = 13;
  load.requests = 120;
  load.rate_rps = 5'000.0;
  load.model = "m";
  load.mix = BalancedTenantMix(3);
  const TenantedLoadReport report = RunTenantedOpenLoop(server.get(), load);

  // The server's per-tenant accounting matches the loadgen's exactly.
  const auto& stats = server->tenant_stats();
  ASSERT_EQ(stats.size(), 3u);
  int64_t offered = 0;
  MetricsReport metrics = server->metrics();
  for (const auto& [tenant, ts] : stats) {
    const auto it = report.by_tenant.find(tenant);
    ASSERT_NE(it, report.by_tenant.end()) << tenant;
    EXPECT_EQ(ts.offered, it->second.offered) << tenant;
    EXPECT_EQ(ts.admitted, it->second.admitted) << tenant;
    EXPECT_EQ(ts.completed, it->second.completed) << tenant;
    EXPECT_EQ(ts.deadline_missed, it->second.deadline_missed) << tenant;
    EXPECT_EQ(ts.latency.count(), it->second.latency.count()) << tenant;
    offered += ts.offered;
    // The structured per-tenant keys flow through metrics().
    EXPECT_EQ(metrics.Get("serve.tenant." + tenant + ".offered"),
              static_cast<double>(ts.offered))
        << tenant;
    EXPECT_EQ(metrics.Get("serve.tenant." + tenant + ".completed"),
              static_cast<double>(ts.completed))
        << tenant;
  }
  EXPECT_EQ(offered, 120);
  // Completions carry the tenant id.
  for (const Server::Completion& c : server->completions()) {
    EXPECT_TRUE(stats.count(c.tenant) == 1) << c.tenant;
  }
}

// ----------------------------------- critical-path completion contract

/// Standalone-server path record from a completion: no network hops, so
/// send == admit and deliver == finish.
obs::RequestPathRecord RecordFromCompletion(const Server::Completion& c) {
  obs::RequestPathRecord rec;
  rec.rid = c.rid;
  rec.tenant = c.tenant;
  rec.slot = c.slot;
  rec.send_ns = obs::SimNs(c.arrival_ms);
  rec.admit_ns = obs::SimNs(c.arrival_ms);
  rec.quota_open_ns = obs::SimNs(c.quota_open_ms);
  rec.dispatch_ns = obs::SimNs(c.dispatch_ms);
  rec.finish_ns = obs::SimNs(c.finish_ms);
  rec.deliver_ns = obs::SimNs(c.finish_ms);
  rec.deadline_ok = !c.deadline_missed;
  return rec;
}

TEST(SlotServerTest, CompletionBoundariesDecomposeBitwise) {
  RuntimeConfig::SetThreads(1);
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.batch.max_batch = 2;
  config.default_deadline_ms = 1e6;
  config.cost.fixed_ms = 1.0;
  config.cost.per_example_ms = 0.25;
  config.scheduler.use_slots = true;
  config.scheduler.enforce_quotas = true;
  // 1 token per 2 ms against 0.2 ms arrival spacing: the token bucket
  // must delay most of the burst, making quota_open > arrival.
  config.scheduler.default_policy.rate_rps = 500.0;
  config.scheduler.default_policy.burst = 1.0;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(101), {16}).ok());

  Rng rng(102);
  Tensor x({16});
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    x.FillGaussian(&rng, 1.0f);
    // A RequestTrace rekeys the lifecycle under the caller's rid.
    const obs::RequestTrace rtrace{500 + i, 0};
    ASSERT_EQ(server
                  ->Submit("m", x, static_cast<double>(i) * 0.2,
                           /*deadline_budget_ms=*/0.0, "a", &rtrace)
                  .outcome,
              Server::Outcome::kAdmitted);
  }
  server->Drain();

  const std::vector<Server::Completion>& done = server->completions();
  ASSERT_EQ(done.size(), static_cast<size_t>(kRequests));
  std::vector<int64_t> rids;
  int64_t quota_delayed = 0;
  for (const Server::Completion& c : done) {
    rids.push_back(c.rid);
    // The quota boundary is clamped into [arrival, dispatch].
    EXPECT_GE(c.quota_open_ms, c.arrival_ms);
    EXPECT_LE(c.quota_open_ms, c.dispatch_ms);
    EXPECT_GE(c.slot, 0) << "slot mode must stamp the lane";
    const obs::RequestPathRecord rec = RecordFromCompletion(c);
    const obs::PathComponents comp = obs::DecomposePath(rec);
    // The decomposition sums bitwise to the served latency, with the
    // network components exactly zero for a standalone server.
    EXPECT_EQ(comp.total_ns(), rec.finish_ns - rec.send_ns);
    EXPECT_EQ(comp[obs::PathComponent::kRouteHop], 0);
    EXPECT_EQ(comp[obs::PathComponent::kAdmission], 0);
    EXPECT_EQ(comp[obs::PathComponent::kReturnHop], 0);
    EXPECT_EQ(comp[obs::PathComponent::kQuotaDelay] +
                  comp[obs::PathComponent::kSlotWait] +
                  comp[obs::PathComponent::kExecute],
              obs::SimNs(c.finish_ms) - obs::SimNs(c.arrival_ms));
    if (comp[obs::PathComponent::kQuotaDelay] > 0) ++quota_delayed;
  }
  EXPECT_GT(quota_delayed, kRequests / 2)
      << "the overloaded bucket should show up as quota delay, not slot "
         "wait";
  std::sort(rids.begin(), rids.end());
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(rids[static_cast<size_t>(i)], 500 + i)
        << "completions must carry the fleet rid from RequestTrace";
  }
}

TEST(ServerTest, LegacyModeChargesQueueWaitToSlotWait) {
  RuntimeConfig::SetThreads(1);
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 32;
  config.batch.max_batch = 4;
  config.default_deadline_ms = 1e6;
  config.cost.fixed_ms = 1.0;
  config.cost.per_example_ms = 0.25;
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(103), {16}).ok());
  Rng rng(104);
  Tensor x({16});
  for (int i = 0; i < 8; ++i) {
    x.FillGaussian(&rng, 1.0f);
    ASSERT_EQ(server->Submit("m", x, static_cast<double>(i) * 0.1).outcome,
              Server::Outcome::kAdmitted);
  }
  server->Drain();
  for (const Server::Completion& c : server->completions()) {
    EXPECT_EQ(c.slot, -1);
    EXPECT_EQ(c.rid, c.id) << "no RequestTrace: rid falls back to the id";
    // Legacy batching has no quota stage: the whole queue wait is slot
    // wait, so quota_open degenerates to the arrival.
    EXPECT_DOUBLE_EQ(c.quota_open_ms, c.arrival_ms);
    const obs::PathComponents comp =
        obs::DecomposePath(RecordFromCompletion(c));
    EXPECT_EQ(comp[obs::PathComponent::kQuotaDelay], 0);
    EXPECT_EQ(comp.total_ns(),
              obs::SimNs(c.finish_ms) - obs::SimNs(c.arrival_ms));
  }
}

TEST(LoadGenTest, TenantedOpenLoopReplaysBitForBit) {
  const std::vector<TenantShare> mix = HotTenantMix(3, 4.0);
  const std::vector<std::string> a = AssignTenants(mix, 17, 3000);
  const std::vector<std::string> b = AssignTenants(mix, 17, 3000);
  EXPECT_EQ(a, b);
  std::map<std::string, int64_t> counts;
  for (const std::string& t : a) ++counts[t];
  // Shares 4:1:1 over 3000 draws: the hot tenant gets about 2000.
  EXPECT_GT(counts["t0"], 1800);
  EXPECT_LT(counts["t0"], 2200);
  EXPECT_GT(counts["t1"], 350);
  EXPECT_GT(counts["t2"], 350);

  const auto run = [&]() {
    ModelRegistry registry;
    ServerConfig config;
    config.workers = 2;
    config.batch.max_batch = 4;
    config.scheduler.use_slots = true;
    auto created = Server::Create(&registry, config);
    EXPECT_TRUE(created.ok());
    std::unique_ptr<Server> server = std::move(created).value();
    EXPECT_TRUE(server->Publish("m", MakeNet(91), {16}).ok());
    TenantedLoadConfig load;
    load.seed = 19;
    load.requests = 200;
    load.rate_rps = 60'000.0;  // hot enough that some requests shed
    load.deadline_ms = 2.0;
    load.model = "m";
    load.mix = mix;
    return RunTenantedOpenLoop(server.get(), load);
  };
  const TenantedLoadReport r1 = run();
  const TenantedLoadReport r2 = run();

  EXPECT_EQ(r1.total.offered, 200);
  EXPECT_EQ(r1.total.offered, r1.total.admitted + r1.total.shed);
  EXPECT_EQ(r1.total.completed, r1.total.admitted);
  EXPECT_EQ(r1.total.admitted, r2.total.admitted);
  EXPECT_EQ(r1.total.shed, r2.total.shed);
  EXPECT_EQ(r1.total.duration_ms, r2.total.duration_ms);
  EXPECT_EQ(r1.max_min_goodput_ratio, r2.max_min_goodput_ratio);
  ASSERT_EQ(r1.by_tenant.size(), r2.by_tenant.size());
  for (const auto& [tenant, per] : r1.by_tenant) {
    const auto it = r2.by_tenant.find(tenant);
    ASSERT_NE(it, r2.by_tenant.end()) << tenant;
    EXPECT_EQ(per.offered, it->second.offered) << tenant;
    EXPECT_EQ(per.admitted, it->second.admitted) << tenant;
    EXPECT_EQ(per.completed, it->second.completed) << tenant;
    EXPECT_EQ(per.deadline_missed, it->second.deadline_missed) << tenant;
    EXPECT_EQ(per.latency.sum_ms(), it->second.latency.sum_ms()) << tenant;
  }
}


// ------------------------------------------ seeded conservation property

/// Runs one seeded random scenario on the FIFO (\p slots false) or slot
/// path and checks request conservation after Drain. The seed draws the
/// server shape, cost model, batch policy, tenant mix (with quotas,
/// weights and priority classes on the slot path), load factor against
/// the declared capacity, per-request deadlines, an unknown-model
/// trickle, a mid-run hot swap, a draining window and one DropQueued.
void CheckConservation(uint64_t seed, bool slots) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + (slots ? 1 : 0));
  ModelRegistry registry;
  ServerConfig config;
  config.workers = 1 + static_cast<int>(rng.Index(3));
  config.batch.max_batch = 1 + static_cast<int64_t>(rng.Index(6));
  config.batch.max_delay_ms = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 2.0);
  config.queue_capacity =
      config.batch.max_batch * (1 + static_cast<int64_t>(rng.Index(4)));
  config.default_deadline_ms = rng.Uniform(1.0, 20.0);
  config.cost.fixed_ms = rng.Uniform(0.05, 1.0);
  config.cost.per_example_ms = rng.Uniform(0.01, 0.3);
  const int tenants = 1 + static_cast<int>(rng.Index(4));
  if (slots) {
    SlotSchedulerConfig& sched = config.scheduler;
    sched.use_slots = true;
    sched.slots_per_worker = static_cast<int>(rng.Index(5));  // 0: max_batch
    sched.priority_classes = 1 + static_cast<int>(rng.Index(2));
    sched.fair_queueing = rng.Bernoulli(0.7);
    sched.enforce_quotas = rng.Bernoulli(0.7);
    sched.default_policy.rate_rps =
        rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(200.0, 5000.0);
    sched.default_policy.burst = rng.Uniform(1.0, 8.0);
    for (int t = 0; t < tenants; ++t) {
      if (!rng.Bernoulli(0.5)) continue;
      TenantPolicy policy;
      policy.rate_rps = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(200.0, 5000.0);
      policy.burst = rng.Uniform(1.0, 8.0);
      policy.weight = rng.Uniform(0.5, 4.0);
      policy.priority =
          static_cast<int>(rng.Index(static_cast<uint64_t>(
              sched.priority_classes)));
      sched.tenants["t" + std::to_string(t)] = policy;
    }
  }
  auto created = Server::Create(&registry, config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Server> server = std::move(created).value();
  ASSERT_TRUE(server->Publish("m", MakeNet(seed), {16}).ok());

  // Offered load as a multiple of the declared full-batch capacity.
  const double capacity_per_ms =
      static_cast<double>(config.workers * config.batch.max_batch) /
      EstimateServiceMs(config.cost, config.batch.max_batch);
  const double load_factor = rng.Uniform(0.3, 3.0);
  const double mean_gap_ms = 1.0 / (load_factor * capacity_per_ms);

  constexpr int kRequests = 150;
  const int swap_at = static_cast<int>(rng.Index(kRequests));
  const int drain_from = static_cast<int>(rng.Index(kRequests));
  const int drain_to = drain_from + static_cast<int>(rng.Index(20));
  const int drop_at = static_cast<int>(rng.Index(kRequests));

  std::map<Server::Outcome, int64_t> outcomes;
  std::map<std::string, int64_t> no_such_model_by_tenant;
  int64_t dropped = 0;
  double t = 0.0;
  Tensor x({16});
  for (int i = 0; i < kRequests; ++i) {
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_ms;
    if (i == swap_at) {
      ASSERT_TRUE(server->Publish("m", MakeNet(seed + 1000), {16}).ok());
    }
    server->SetDraining(i >= drain_from && i < drain_to);
    if (i == drop_at) dropped += server->DropQueued();
    if (rng.Bernoulli(0.2)) {
      server->AdvanceTo(std::max(server->clock_ms(),
                                 t - rng.Uniform(0.0, mean_gap_ms)));
    }
    const std::string tenant =
        "t" + std::to_string(rng.Index(static_cast<uint64_t>(tenants)));
    const bool missing = rng.Bernoulli(0.03);
    const double budget = rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.5, 20.0);
    x.FillGaussian(&rng, 1.0f);
    const Server::SubmitResult r =
        server->Submit(missing ? "absent" : "m", x, t, budget, tenant);
    ++outcomes[r.outcome];
    if (r.outcome == Server::Outcome::kNoSuchModel) {
      ++no_such_model_by_tenant[tenant];
    }
  }
  server->SetDraining(false);
  server->Drain();
  EXPECT_EQ(server->queue_depth(), 0);
  EXPECT_LT(server->NextActionableMs(), 0.0);

  const MetricsReport m = server->metrics();
  const auto count = [&m](const char* key) {
    return static_cast<int64_t>(m.Get(key));
  };
  const int64_t offered = count("serve.offered");
  const int64_t admitted = count("serve.admitted");
  const int64_t shed_full = count("serve.shed.queue_full");
  const int64_t shed_deadline = count("serve.shed.deadline_infeasible");
  const int64_t shed_draining = count("serve.shed.draining");
  const int64_t no_such_model = count("serve.no_such_model");

  // Every offered request is admitted or turned away exactly once, and
  // the server's counts agree with the verdicts Submit returned.
  EXPECT_EQ(offered, kRequests);
  EXPECT_EQ(offered, admitted + shed_full + shed_deadline + shed_draining +
                         no_such_model);
  EXPECT_EQ(admitted, outcomes[Server::Outcome::kAdmitted]);
  EXPECT_EQ(shed_full, outcomes[Server::Outcome::kShedQueueFull]);
  EXPECT_EQ(shed_deadline, outcomes[Server::Outcome::kShedDeadline]);
  EXPECT_EQ(shed_draining, outcomes[Server::Outcome::kShedDraining]);
  EXPECT_EQ(no_such_model, outcomes[Server::Outcome::kNoSuchModel]);

  // Every admitted request completes or died in the queue drop.
  const std::vector<Server::Completion>& done = server->completions();
  EXPECT_EQ(count("serve.dropped_queued"), dropped);
  EXPECT_EQ(admitted, static_cast<int64_t>(done.size()) + dropped);

  // Each server-wide count is the sum of the per-tenant tallies.
  Server::TenantStats sum;
  std::map<std::string, int64_t> completed_by_tenant;
  int64_t missed = 0;
  for (const Server::Completion& c : done) {
    ++completed_by_tenant[c.tenant];
    if (c.deadline_missed) ++missed;
    EXPECT_EQ(c.deadline_missed, c.finish_ms > c.deadline_ms) << c.id;
    // Boundaries are ordered: arrival <= quota_open <= dispatch <= finish.
    EXPECT_LE(c.arrival_ms, c.quota_open_ms) << c.id;
    EXPECT_LE(c.quota_open_ms, c.dispatch_ms) << c.id;
    EXPECT_LE(c.dispatch_ms, c.finish_ms) << c.id;
    EXPECT_EQ(c.slot >= 0, slots) << c.id;
  }
  for (const auto& [tenant, ts] : server->tenant_stats()) {
    sum.offered += ts.offered;
    sum.admitted += ts.admitted;
    sum.completed += ts.completed;
    sum.deadline_missed += ts.deadline_missed;
    sum.shed_queue_full += ts.shed_queue_full;
    sum.shed_deadline += ts.shed_deadline;
    sum.shed_draining += ts.shed_draining;
    EXPECT_EQ(ts.offered, ts.admitted + ts.shed_queue_full +
                              ts.shed_deadline + ts.shed_draining +
                              no_such_model_by_tenant[tenant])
        << tenant;
    EXPECT_EQ(ts.completed, completed_by_tenant[tenant]) << tenant;
    EXPECT_EQ(ts.latency.count(), ts.completed) << tenant;
  }
  EXPECT_EQ(sum.offered, offered);
  EXPECT_EQ(sum.admitted, admitted);
  EXPECT_EQ(sum.completed, static_cast<int64_t>(done.size()));
  EXPECT_EQ(sum.deadline_missed, count("serve.deadline_missed"));
  EXPECT_EQ(sum.deadline_missed, missed);
  EXPECT_EQ(sum.shed_queue_full, shed_full);
  EXPECT_EQ(sum.shed_deadline, shed_deadline);
  EXPECT_EQ(sum.shed_draining, shed_draining);
}

TEST(ServerPropertyTest, ConservationHoldsOverSeededScenariosOnBothPaths) {
  RuntimeConfig::SetThreads(1);
  for (const bool slots : {false, true}) {
    for (uint64_t seed = 1; seed <= 24; ++seed) {
      SCOPED_TRACE(std::string(slots ? "slots" : "fifo") + " seed " +
                   std::to_string(seed));
      CheckConservation(seed, slots);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace dlsys
