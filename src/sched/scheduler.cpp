#include "sched/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace ssdk::sched {

namespace {

/// Fixed-point scale of the WFQ virtual clock: one page of service at
/// weight 1 advances a tenant's finish tag by this much, so weighted
/// divisions stay exact integers for any weight the scale divides.
constexpr std::uint64_t kWfqScale = 1ULL << 20;

}  // namespace

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFifo: return "fifo";
    case Policy::kWfq: return "wfq";
    case Policy::kDrr: return "drr";
    case Policy::kWeightedShare: return "weighted_share";
  }
  return "unknown";
}

Policy parse_policy(std::string_view name) {
  if (name == "fifo") return Policy::kFifo;
  if (name == "wfq") return Policy::kWfq;
  if (name == "drr") return Policy::kDrr;
  if (name == "weighted_share") return Policy::kWeightedShare;
  throw std::invalid_argument("sched: unknown policy '" + std::string(name) +
                              "' (want fifo|wfq|drr|weighted_share)");
}

std::uint32_t SchedConfig::weight_of(sim::TenantId tenant) const {
  for (const TenantShare& s : shares) {
    if (s.tenant == tenant) return s.weight;
  }
  return 1;
}

std::uint64_t SchedConfig::slo_target_us_of(sim::TenantId tenant) const {
  for (const TenantShare& s : shares) {
    if (s.tenant == tenant) return s.slo_target_us;
  }
  return 0;
}

void SchedConfig::validate() const {
  if (drr_quantum_pages == 0) {
    throw std::invalid_argument(
        "sched: drr_quantum_pages must be positive (DRR would never "
        "accumulate credit)");
  }
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (shares[i].weight == 0) {
      throw std::invalid_argument("sched: tenant " +
                                  std::to_string(shares[i].tenant) +
                                  " has zero weight");
    }
    for (std::size_t j = i + 1; j < shares.size(); ++j) {
      if (shares[i].tenant == shares[j].tenant) {
        throw std::invalid_argument("sched: duplicate share entry for "
                                    "tenant " +
                                    std::to_string(shares[i].tenant));
      }
    }
  }
}

namespace {

/// Shared admission-window and sequence bookkeeping; concrete policies
/// supply the queues and the pick rule.
class SchedulerBase : public Scheduler {
 public:
  explicit SchedulerBase(const SchedConfig& config) : config_(config) {}

  std::uint64_t outstanding() const override { return outstanding_; }
  std::uint64_t decisions() const override { return decision_seq_; }

  void on_complete(sim::TenantId /*tenant*/) override {
    SSDK_CHECK_MSG(outstanding_ > 0,
                   "sched: completion with no outstanding request");
    --outstanding_;
  }

 protected:
  bool window_open() const {
    return config_.max_outstanding_requests == 0 ||
           outstanding_ < config_.max_outstanding_requests;
  }
  void grant(Grant& out, std::uint64_t request_index, sim::TenantId tenant,
             SimTime enqueued_at) {
    out.request_index = request_index;
    out.tenant = tenant;
    out.enqueued_at = enqueued_at;
    out.decision_seq = decision_seq_++;
    ++outstanding_;
  }
  void save_header(snapshot::StateWriter& w) const {
    w.tag("SCHD");
    w.u8(static_cast<std::uint8_t>(policy()));
    w.u64(outstanding_);
    w.u64(decision_seq_);
    w.u64(next_seq_);
  }
  void load_header(snapshot::StateReader& r) {
    r.tag("SCHD");
    const auto p = static_cast<Policy>(r.u8());
    if (p != policy()) {
      throw snapshot::SnapshotError(
          "snapshot: scheduler policy mismatch at offset " +
              std::to_string(r.offset()) + ": device configured for " +
              std::string(policy_name(policy())) + ", payload carries " +
              std::string(policy_name(p)),
          r.offset());
    }
    outstanding_ = r.u64();
    decision_seq_ = r.u64();
    next_seq_ = r.u64();
  }

  // ssdk-snap: skip(config_): construction-time configuration; travels with the snapshot in the OPTS section, not in SCHD
  SchedConfig config_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t decision_seq_ = 0;
  std::uint64_t next_seq_ = 0;  ///< enqueue order (fair-policy tie-breaks)
};

/// Arrival-order admission. With the default unlimited window this is the
/// schedule-neutral baseline: enqueue -> pick -> admit happens
/// synchronously at the arrival instant, in arrival order.
class FifoScheduler final : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;

  Policy policy() const override { return Policy::kFifo; }

  void enqueue(std::uint64_t request_index, sim::TenantId tenant,
               std::uint32_t /*page_count*/, SimTime now) override {
    q_.push_back(Entry{request_index, now, tenant});
    ++next_seq_;
  }

  bool pick(Grant& out) override {
    if (!window_open() || q_.empty()) return false;
    const Entry e = q_.front();
    q_.pop_front();
    grant(out, e.request_index, e.tenant, e.enqueued_at);
    return true;
  }

  std::size_t pending() const override { return q_.size(); }

  std::vector<std::uint64_t> pending_requests() const override {
    std::vector<std::uint64_t> out;
    out.reserve(q_.size());
    for (const Entry& e : q_) out.push_back(e.request_index);
    return out;
  }

  void clear() override {
    q_.clear();
    outstanding_ = 0;
  }

  std::unique_ptr<Scheduler> clone() const override {
    return std::make_unique<FifoScheduler>(*this);
  }

  void save_state(snapshot::StateWriter& w) const override {
    save_header(w);
    w.u64(q_.size());
    for (const Entry& e : q_) {
      w.u64(e.request_index);
      w.u64(e.enqueued_at);
      w.u32(e.tenant);
    }
  }

  void load_state(snapshot::StateReader& r) override {
    load_header(r);
    const std::uint64_t n = r.checked_count(8 + 8 + 4);
    q_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      Entry e;
      e.request_index = r.u64();
      e.enqueued_at = r.u64();
      e.tenant = r.u32();
      q_.push_back(e);
    }
  }

  void check_invariants() const override {
    if (config_.max_outstanding_requests > 0) {
      SSDK_CHECK_MSG(outstanding_ <= config_.max_outstanding_requests,
                     "sched: outstanding " + std::to_string(outstanding_) +
                         " exceeds the admission window");
    } else {
      // An unlimited window admits synchronously, so at most the one
      // request whose arrival hook is currently running may be pending
      // (a fork taken inside the hook clones exactly that state; the
      // clone's run loop admits it on entry).
      SSDK_CHECK_MSG(q_.size() <= 1,
                     "sched: fifo with an unlimited window holds " +
                         std::to_string(q_.size()) +
                         " pending requests outside a pump");
    }
  }

 private:
  struct Entry {
    std::uint64_t request_index = 0;
    SimTime enqueued_at = 0;
    sim::TenantId tenant = 0;
  };
  std::deque<Entry> q_;
};

/// Per-tenant FIFO queues with a weighted arbitration rule on top. One
/// class covers WFQ, DRR and weighted share: the queues, the window and
/// the serialization are identical, only next_head() differs.
class FairScheduler final : public SchedulerBase {
 public:
  FairScheduler(const SchedConfig& config, Policy policy)
      : SchedulerBase(config), policy_(policy) {}

  Policy policy() const override { return policy_; }

  void enqueue(std::uint64_t request_index, sim::TenantId tenant,
               std::uint32_t page_count, SimTime now) override {
    TenantState& t = slot(tenant);
    Item item;
    item.request_index = request_index;
    item.page_count = page_count;
    item.enqueued_at = now;
    item.seq = next_seq_++;
    // WFQ (start-time fair queueing) tags, assigned at enqueue: a tenant's
    // items form a chain of back-to-back virtual service intervals
    // starting no earlier than the current virtual time. Computed for
    // every policy — they are cheap, and keeping Item uniform keeps the
    // wire format policy-independent.
    item.start_tag = std::max(vtime_, t.last_finish);
    item.finish_tag =
        item.start_tag + static_cast<std::uint64_t>(page_count) * kWfqScale /
                             config_.weight_of(tenant);
    t.last_finish = item.finish_tag;
    t.q.push_back(item);
    ++pending_;
  }

  bool pick(Grant& out) override {
    if (!window_open() || pending_ == 0) return false;
    const auto it = next_head();
    TenantState& t = it->second;
    const Item item = t.q.front();
    switch (policy_) {
      case Policy::kWfq:
        // The virtual clock follows the minimum start tag in service, so
        // idle tenants re-enter at the current service level instead of
        // claiming their whole idle period as credit.
        vtime_ = std::max(vtime_, item.start_tag);
        break;
      case Policy::kDrr:
        t.deficit -= item.page_count;  // next_head topped it up past cost
        break;
      case Policy::kWeightedShare:
        t.served_pages += item.page_count;
        break;
      case Policy::kFifo:
        break;  // unreachable: FifoScheduler handles kFifo
    }
    t.q.pop_front();
    --pending_;
    if (policy_ == Policy::kDrr) {
      if (t.q.empty()) {
        // Classic DRR: an emptied queue forfeits its residual credit.
        t.deficit = 0;
        rr_cursor_ = it->first + 1;
      } else {
        rr_cursor_ = it->first;  // keep serving while the credit lasts
      }
    }
    grant(out, item.request_index, it->first, item.enqueued_at);
    return true;
  }

  std::size_t pending() const override { return pending_; }

  std::vector<std::uint64_t> pending_requests() const override {
    std::vector<std::uint64_t> out;
    out.reserve(pending_);
    for (const auto& [tenant, t] : tenants_) {
      for (const Item& item : t.q) out.push_back(item.request_index);
    }
    return out;
  }

  void clear() override {
    for (auto& [tenant, t] : tenants_) {
      t.q.clear();
      t.deficit = 0;
    }
    pending_ = 0;
    outstanding_ = 0;
  }

  std::unique_ptr<Scheduler> clone() const override {
    return std::make_unique<FairScheduler>(*this);
  }

  void save_state(snapshot::StateWriter& w) const override {
    save_header(w);
    w.u64(vtime_);
    w.u32(rr_cursor_);
    w.u64(tenants_.size());
    for (const auto& [tenant, t] : tenants_) {
      w.u32(tenant);
      w.u64(t.last_finish);
      w.u64(t.deficit);
      w.u64(t.served_pages);
      w.u64(t.q.size());
      for (const Item& item : t.q) {
        w.u64(item.request_index);
        w.u64(item.enqueued_at);
        w.u64(item.seq);
        w.u64(item.start_tag);
        w.u64(item.finish_tag);
        w.u32(item.page_count);
      }
    }
  }

  void load_state(snapshot::StateReader& r) override {
    load_header(r);
    vtime_ = r.u64();
    rr_cursor_ = r.u32();
    tenants_.clear();
    pending_ = 0;
    const std::uint64_t ntenants = r.checked_count(4 + 3 * 8 + 8);
    for (std::uint64_t i = 0; i < ntenants; ++i) {
      const sim::TenantId tenant = r.u32();
      TenantState& t = tenants_[tenant];
      t.last_finish = r.u64();
      t.deficit = r.u64();
      t.served_pages = r.u64();
      const std::uint64_t nitems = r.checked_count(5 * 8 + 4);
      for (std::uint64_t j = 0; j < nitems; ++j) {
        Item item;
        item.request_index = r.u64();
        item.enqueued_at = r.u64();
        item.seq = r.u64();
        item.start_tag = r.u64();
        item.finish_tag = r.u64();
        item.page_count = r.u32();
        t.q.push_back(item);
        ++pending_;
      }
    }
  }

  void check_invariants() const override {
    if (config_.max_outstanding_requests > 0) {
      SSDK_CHECK_MSG(outstanding_ <= config_.max_outstanding_requests,
                     "sched: outstanding " + std::to_string(outstanding_) +
                         " exceeds the admission window");
    }
    std::size_t queued = 0;
    for (const auto& [tenant, t] : tenants_) {
      std::uint64_t prev_start = 0;
      for (const Item& item : t.q) {
        ++queued;
        SSDK_CHECK_MSG(item.page_count > 0,
                       "sched: tenant " + std::to_string(tenant) +
                           " queues a zero-page request");
        SSDK_CHECK_MSG(item.seq < next_seq_,
                       "sched: queued item carries seq " +
                           std::to_string(item.seq) + " >= next_seq");
        SSDK_CHECK_MSG(item.start_tag >= prev_start &&
                           item.finish_tag >= item.start_tag,
                       "sched: tenant " + std::to_string(tenant) +
                           " has non-monotone WFQ tags");
        prev_start = item.start_tag;
      }
      SSDK_CHECK_MSG(t.q.empty() || t.last_finish >= t.q.back().finish_tag,
                     "sched: tenant " + std::to_string(tenant) +
                         " last_finish behind its queued tail");
    }
    SSDK_CHECK_MSG(queued == pending_,
                   "sched: pending counter " + std::to_string(pending_) +
                       " != queued items " + std::to_string(queued));
  }

 private:
  struct Item {
    std::uint64_t request_index = 0;
    SimTime enqueued_at = 0;
    std::uint64_t seq = 0;
    std::uint64_t start_tag = 0;   ///< WFQ virtual start
    std::uint64_t finish_tag = 0;  ///< WFQ virtual finish
    std::uint32_t page_count = 0;
  };
  struct TenantState {
    std::deque<Item> q;
    std::uint64_t last_finish = 0;   ///< WFQ: tail of the tag chain
    std::uint64_t deficit = 0;       ///< DRR credit, in pages
    std::uint64_t served_pages = 0;  ///< weighted share accounting
  };
  using TenantMap = std::map<sim::TenantId, TenantState>;

  TenantState& slot(sim::TenantId tenant) { return tenants_[tenant]; }

  /// The backlogged tenant the policy serves next. Callers guarantee
  /// pending_ > 0. For DRR this also tops up deficits round-robin until a
  /// tenant can afford its head (guaranteed to terminate: every full lap
  /// adds quantum * weight >= 1 page of credit).
  TenantMap::iterator next_head() {
    switch (policy_) {
      case Policy::kWfq: {
        auto best = tenants_.end();
        for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
          if (it->second.q.empty()) continue;
          const Item& head = it->second.q.front();
          if (best == tenants_.end() ||
              head.start_tag < best->second.q.front().start_tag ||
              (head.start_tag == best->second.q.front().start_tag &&
               head.seq < best->second.q.front().seq)) {
            best = it;
          }
        }
        return best;
      }
      case Policy::kDrr: {
        while (true) {
          auto it = next_backlogged(rr_cursor_);
          TenantState& t = it->second;
          if (t.deficit >= t.q.front().page_count) return it;
          t.deficit += static_cast<std::uint64_t>(config_.drr_quantum_pages) *
                       config_.weight_of(it->first);
          rr_cursor_ = it->first + 1;
        }
      }
      case Policy::kWeightedShare: {
        // argmin served_pages / weight, exact via cross-multiplication;
        // map order makes the tie-break "lowest tenant id".
        auto best = tenants_.end();
        for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
          if (it->second.q.empty()) continue;
          if (best == tenants_.end() ||
              it->second.served_pages * config_.weight_of(best->first) <
                  best->second.served_pages * config_.weight_of(it->first)) {
            best = it;
          }
        }
        return best;
      }
      case Policy::kFifo:
        break;
    }
    return tenants_.end();  // unreachable
  }

  /// First tenant with queued work at id >= `from`, wrapping around.
  TenantMap::iterator next_backlogged(sim::TenantId from) {
    for (auto it = tenants_.lower_bound(from); it != tenants_.end(); ++it) {
      if (!it->second.q.empty()) return it;
    }
    for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
      if (!it->second.q.empty()) return it;
    }
    return tenants_.end();  // unreachable while pending_ > 0
  }

  // ssdk-snap: skip(policy_): fixed at construction; the SCHD section stores a policy tag and refuses to load under a different one
  Policy policy_;
  TenantMap tenants_;
  // ssdk-snap: skip(pending_): derived count of queued requests, recomputed while the per-tenant queues load
  std::size_t pending_ = 0;
  std::uint64_t vtime_ = 0;        ///< WFQ virtual clock
  sim::TenantId rr_cursor_ = 0;    ///< DRR: next tenant id to visit
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const SchedConfig& config) {
  config.validate();
  if (config.policy == Policy::kFifo) {
    return std::make_unique<FifoScheduler>(config);
  }
  return std::make_unique<FairScheduler>(config, config.policy);
}

}  // namespace ssdk::sched
