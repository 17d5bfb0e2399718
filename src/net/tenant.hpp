// Multi-tenant ingress control for the network edge: token-bucket rate
// quotas priced in admission units, plus a deficit-round-robin (DRR)
// scheduler that keeps one chatty tenant from starving the others'
// already-read frames.
//
// Division of labour with service/admission.hpp: the admission
// controller protects the SOLVER (global queue depth, per-job cost
// caps); the governor here protects the EDGE (per-tenant arrival rate,
// inter-tenant fairness).  Both speak the same currency --
// service::price_units(algorithm, n) -- so a quota of R units/sec is
// directly comparable to the admission budget.
//
// A throttle verdict is backpressure, not failure: the wire server turns
// it into a kRetryAfter frame carrying the bucket's own estimate of when
// the tokens will exist (docs/PROTOCOL.md).  A job the quota admitted
// but admission then bounced (kQueueFull) is refunded, so a full queue
// does not also burn the tenant's budget.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

namespace chainckpt::net {

/// Rate limit of one tenant.  rate == 0 means unlimited (the bucket is
/// bypassed entirely); burst == 0 with a positive rate defaults to one
/// second's worth of tokens.
struct TenantQuota {
  double rate_units_per_sec = 0.0;
  double burst_units = 0.0;

  bool unlimited() const noexcept { return rate_units_per_sec <= 0.0; }
  double effective_burst() const noexcept {
    return burst_units > 0.0 ? burst_units : rate_units_per_sec;
  }
};

/// Outcome of charging a submit against its tenant's bucket.
struct ThrottleDecision {
  bool admitted = true;
  /// When !admitted: milliseconds until the bucket will hold enough
  /// tokens for this charge (>= 1; the client should wait at least this).
  std::uint32_t retry_after_ms = 0;
};

/// Per-tenant edge counters (distinct from service::TenantCounters, which
/// attributes solver outcomes; these attribute edge verdicts).
struct TenantEdgeStats {
  std::uint64_t admitted = 0;   ///< charges the bucket accepted
  std::uint64_t throttled = 0;  ///< charges bounced with retry-after
  std::uint64_t refunded = 0;   ///< admission queue-full refunds
  double units_charged = 0.0;   ///< net units consumed (charges - refunds)
};

/// Token-bucket registry keyed by tenant id.  Time is injected as
/// seconds-since-epoch doubles so tests can drive the clock explicitly.
/// Thread-safe: the wire server's I/O thread charges it while
/// WireServer::tenant_stats() reads it from any thread.
class TenantGovernor {
 public:
  /// `default_quota` applies to tenants with no explicit entry.
  explicit TenantGovernor(TenantQuota default_quota = {});

  /// Installs/overwrites one tenant's quota (bucket starts full).
  void set_quota(std::uint64_t tenant, TenantQuota quota);
  TenantQuota quota_for(std::uint64_t tenant) const;

  /// Refills the tenant's bucket to `now_seconds`, then tries to take
  /// `units` tokens.  Admits when the bucket holds the charge (capped at
  /// the burst ceiling, so a single job priced above the burst is not
  /// starved forever -- it waits for a full bucket, not an impossible
  /// one).  The bucket may go negative on an admitted charge (burst
  /// debt), which later charges repay by waiting.
  ThrottleDecision try_charge(std::uint64_t tenant, double units,
                              double now_seconds);

  /// Returns `units` to the bucket (clamped to the burst ceiling).  Used
  /// when the quota said yes but admission said queue-full: backpressure
  /// must not double-bill.
  void refund(std::uint64_t tenant, double units);

  /// Edge counters per tenant, ascending id (tenants seen by the
  /// governor; a tenant with an unlimited quota still appears).
  std::map<std::uint64_t, TenantEdgeStats> stats() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    double last_refill_seconds = 0.0;
    bool primed = false;  ///< bucket starts full on first sighting
    TenantEdgeStats stats;
  };

  Bucket& bucket_locked(std::uint64_t tenant);

  mutable std::mutex mutex_;
  TenantQuota default_quota_;
  std::map<std::uint64_t, TenantQuota> quotas_;
  std::map<std::uint64_t, Bucket> buckets_;
};

/// Deficit round robin over per-tenant FIFO queues.  Each queued item
/// carries its admission price; every visit grants the tenant `quantum`
/// units of deficit, and the head item is served once the accumulated
/// deficit covers its price.  Cheap jobs from polite tenants therefore
/// overtake a flood of expensive jobs from a greedy one, while each
/// tenant's own items stay FIFO.  A tenant holds an entry only while it
/// has queued items.  Single-threaded by design (the wire server's I/O
/// loop owns it).
template <typename Item>
class DrrScheduler {
 public:
  /// `quantum` must be positive.
  explicit DrrScheduler(double quantum) : quantum_(quantum) {}

  void push(std::uint64_t tenant, double cost, Item item) {
    Queue& queue = queues_[tenant];
    if (queue.items.empty()) round_.push_back(tenant);
    queue.items.emplace_back(cost, std::move(item));
    ++size_;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  /// Tenants with at least one queued item.
  std::size_t tenants() const noexcept { return queues_.size(); }

  /// Serves the next item in DRR order.  Requires !empty().  Terminates:
  /// every full rotation adds `quantum_` to each queued tenant's deficit,
  /// so some head item eventually becomes affordable.
  std::pair<std::uint64_t, Item> pop() {
    for (;;) {
      const std::uint64_t tenant = round_.front();
      round_.pop_front();
      const auto it = queues_.find(tenant);
      Queue& queue = it->second;
      queue.deficit += quantum_;
      auto& head = queue.items.front();
      if (head.first <= queue.deficit) {
        queue.deficit -= head.first;
        std::pair<std::uint64_t, Item> served{tenant, std::move(head.second)};
        queue.items.pop_front();
        --size_;
        if (queue.items.empty()) {
          // The emptied queue goes with its deficit: credit is not
          // hoarded across idle periods (textbook DRR).
          queues_.erase(it);
        } else {
          round_.push_back(tenant);
        }
        return served;
      }
      round_.push_back(tenant);
    }
  }

 private:
  struct Queue {
    std::deque<std::pair<double, Item>> items;
    double deficit = 0.0;
  };

  double quantum_;
  std::map<std::uint64_t, Queue> queues_;  ///< never holds an empty queue
  std::deque<std::uint64_t> round_;
  std::size_t size_ = 0;
};

}  // namespace chainckpt::net
