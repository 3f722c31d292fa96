#ifndef DLSYS_SERVE_SCHEDULER_H_
#define DLSYS_SERVE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/serve/admission.h"
#include "src/serve/registry.h"

/// \file scheduler.h
/// \brief Multi-tenant QoS scheduler: which queued request fills a freed
/// slot, decided by priority class, token-bucket quota, and deficit-
/// weighted-fair queueing (DWFQ).
///
/// ## Selection order
///
/// 1. **Priority classes** are strict: while any class-0 tenant has an
///    eligible request, no class-1 request is served.
/// 2. **Token buckets** gate eligibility inside a class: a tenant whose
///    bucket holds < 1 token waits for the refill (rate_rps tokens per
///    simulated second, capped at burst). Quotas delay, never shed —
///    the deadline-feasibility test at admission converts a hopeless
///    quota wait into a deadline shed charged to that tenant.
/// 3. **DWFQ** picks among eligible tenants: each tenant carries a
///    deficit counter; a visit tops it up by the tenant's weight, one
///    service costs one unit, and the scan cursor stays on a tenant
///    while its deficit lasts. Backlogged tenants therefore share slots
///    in proportion to their weights, and an idle tenant's unused share
///    redistributes instead of accumulating (its deficit resets).
///    With fair_queueing off the scan degenerates to global FIFO by
///    request id — the starvation control the fairness test pins.
///
/// ## Determinism
///
/// All state (tokens, deficits, cursors) is a pure function of the
/// simulated clock and the arrival sequence: refills are computed from
/// declared rates, ties break by tenant name (map order) and request id,
/// and nothing reads wall time. The same arrivals replay to the same
/// picks bit for bit at any DLSYS_THREADS.

namespace dlsys {

/// \brief One admitted request, from admission to completion: queued in
/// the scheduler (or a FIFO model queue), loaded into a lane, executing.
struct SlotRequest {
  int64_t id = 0;
  int64_t trace_rid = -1;    ///< fleet rid from RequestTrace, -1 local
  std::string tenant;        ///< normalized tenant id
  int priority = 0;          ///< resolved priority class
  int slot = -1;             ///< bound slot lane once loaded (slot mode)
  double arrival_ms = 0.0;
  double deadline_ms = 0.0;  ///< absolute
  /// Predicted simulated time the tenant's token bucket funds this
  /// request behind its existing backlog (stamped by Enqueue; equals
  /// arrival_ms when quotas are off/unlimited, and on the FIFO path).
  /// The critical-path decomposer splits queue wait into quota delay
  /// [arrival, quota_open] vs slot wait [quota_open, dispatch] along
  /// this boundary.
  double quota_open_ms = 0.0;
  std::shared_ptr<ModelSnapshot> snap;  ///< version bound at admission
  std::vector<float> input;  ///< flat copy of the example, snap->in_elems
};

/// \brief Priority + quota + DWFQ selection over per-tenant FIFO queues.
class TenantScheduler {
 public:
  /// \brief Accepts a request whose snapshot the pick must match (e.g.
  /// the version already loaded on a candidate worker). Null matches any.
  using SnapFilter = std::function<bool(const ModelSnapshot*)>;

  explicit TenantScheduler(const SlotSchedulerConfig& config);

  /// \brief The resolved policy for \p tenant (override or default).
  const TenantPolicy& PolicyFor(const std::string& tenant) const;

  /// \brief Queues \p request behind its tenant's earlier requests.
  void Enqueue(SlotRequest request);

  /// \brief Requests queued across all tenants.
  int64_t depth() const { return depth_; }

  /// \brief Picks the next request to serve at simulated \p now_ms under
  /// priority -> quota -> DWFQ, restricted to requests whose snapshot
  /// passes \p filter; nullopt when nothing is eligible. Charges the
  /// winner's token bucket and deficit. Deterministic; state mutations on
  /// a failed scan (deficit resets, cursor advances) are themselves pure
  /// functions of simulated state, so replay is unaffected.
  std::optional<SlotRequest> PickNext(double now_ms,
                                      const SnapFilter& filter = {});

  /// \brief Earliest simulated time >= \p now_ms at which \p tenant's
  /// bucket holds a full token (now_ms when unlimited or already funded).
  /// Pure: nothing is charged.
  double QuotaReadyMs(const std::string& tenant, double now_ms) const;

  /// \brief Earliest simulated time >= \p now_ms at which \p tenant's
  /// bucket could have funded one more request *behind everything the
  /// tenant already has queued* (token arrivals at rate_rps). Pure. The
  /// admission path folds this into the deadline-feasibility prediction,
  /// so a tenant flooding past its quota converts into deadline sheds
  /// charged to itself instead of queueing delay charged to everyone.
  double QuotaBacklogMs(const std::string& tenant, double now_ms) const;

  /// \brief Earliest simulated time >= \p now_ms at which *some* queued
  /// request becomes quota-eligible, or -1 when nothing is queued. Pure.
  /// Feeds Server::NextActionableMs so event loops sleep precisely until
  /// a blocked tenant refills.
  double NextEligibleMs(double now_ms) const;

  /// \brief Discards every queued request (crash path); returns count.
  int64_t DropAll();

  /// \brief Requests served (picked) so far for \p tenant.
  int64_t served(const std::string& tenant) const;

 private:
  struct TenantState {
    TenantPolicy policy;
    std::deque<SlotRequest> queue;
    double tokens = 0.0;
    double refill_ms = 0.0;  ///< simulated time tokens was last settled
    double deficit = 0.0;    ///< DWFQ credit, in requests
    int64_t served = 0;
  };

  TenantState& StateFor(const std::string& tenant);
  /// Settles \p state's bucket forward to \p now_ms.
  void Refill(TenantState* state, double now_ms) const;
  /// Tokens the bucket would hold at \p now_ms without settling it.
  double TokensAt(const TenantState& state, double now_ms) const;
  /// True when quota allows a service at \p now_ms.
  bool QuotaOpen(const TenantState& state, double now_ms) const;
  /// Index of the first queued request of \p state passing \p filter,
  /// or -1.
  static int64_t FirstMatch(const TenantState& state, const SnapFilter& filter);
  /// Serves entry \p pos of \p state: charges quota, pops, returns it.
  SlotRequest Serve(TenantState* state, int64_t pos, double now_ms);

  std::optional<SlotRequest> PickFifo(double now_ms, const SnapFilter& filter);

  SlotSchedulerConfig config_;
  std::map<std::string, TenantState> tenants_;  ///< name order = scan order
  /// Per-priority-class DWFQ cursor: the tenant name the next scan
  /// starts at (lower_bound; wraps).
  std::map<int, std::string> cursor_;
  int64_t depth_ = 0;
};

}  // namespace dlsys

#endif  // DLSYS_SERVE_SCHEDULER_H_
