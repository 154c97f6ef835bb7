#include "sched/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "util/check.hpp"

namespace ssdk::sched {

namespace {

/// Fixed-point scale of the WFQ virtual clock: one page of service at
/// weight 1 advances a tenant's finish tag by this much, so weighted
/// divisions stay exact integers for any weight the scale divides.
constexpr std::uint64_t kWfqScale = 1ULL << 20;

/// DRR: pages of credit a lane gains per round-robin visit, per unit of
/// weight.
constexpr std::uint64_t kDrrQuantumPages = 8;

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

Scheduler::Scheduler(const SchedConfig& config) : config_(config) {
  config_.validate();
}

void Scheduler::enqueue(std::uint64_t request_index, sim::TenantId tenant,
                        std::uint32_t page_count, SimTime now) {
  if (tenant >= lanes_.size()) lanes_.resize(std::size_t{tenant} + 1);
  Lane& lane = lanes_[tenant];
  Item item{.request_index = request_index,
            .page_count = page_count,
            .enqueued_at = now,
            .seq = next_seq_++};
  // WFQ (start-time fair queueing) tags, assigned at enqueue: a tenant's
  // items form a chain of back-to-back virtual service intervals starting
  // no earlier than the current virtual time. Computed under every
  // policy — they are cheap, and one Item keeps one wire format.
  item.start_tag = std::max(vtime_, lane.last_finish);
  item.finish_tag =
      item.start_tag +
      static_cast<std::uint64_t>(page_count) * kWfqScale / weight(tenant);
  lane.last_finish = item.finish_tag;
  lane.q.push_back(item);
  ++pending_;
}

bool Scheduler::pick(Grant& out) {
  if (!window_open() || pending_ == 0) return false;
  const std::size_t tenant = next_lane();
  Lane& lane = lanes_[tenant];
  const Item item = lane.q.front();
  lane.q.pop_front();
  --pending_;
  switch (config_.policy) {
    case Policy::kFifo:
      break;
    case Policy::kWfq:
      // The virtual clock follows the minimum start tag in service, so
      // idle tenants re-enter at the current service level instead of
      // claiming their whole idle period as credit.
      vtime_ = std::max(vtime_, item.start_tag);
      break;
    case Policy::kDrr:
      lane.deficit -= item.page_count;  // next_lane topped it up past cost
      if (lane.q.empty()) {
        // Classic DRR: an emptied queue forfeits its residual credit.
        lane.deficit = 0;
        rr_cursor_ = static_cast<sim::TenantId>(tenant + 1);
      } else {
        rr_cursor_ = static_cast<sim::TenantId>(tenant);  // credit lasts
      }
      break;
    case Policy::kWeightedShare:
      lane.served_pages += item.page_count;
      break;
  }
  out = Grant{item.request_index, static_cast<sim::TenantId>(tenant),
               item.enqueued_at, decision_seq_++};
  ++outstanding_;
  return true;
}

void Scheduler::on_complete(sim::TenantId /*tenant*/) {
  SSDK_CHECK_MSG(outstanding_ > 0,
                 "sched: completion with no outstanding request");
  --outstanding_;
}

std::size_t Scheduler::next_lane() {
  if (config_.policy == Policy::kDrr) {
    // Visit the backlogged lanes round-robin from the cursor, topping each
    // up until one can afford its head. Terminates: every full lap adds
    // quantum * weight >= 1 page of credit to each backlogged lane.
    while (true) {
      std::size_t t = rr_cursor_ < lanes_.size() ? rr_cursor_ : 0;
      while (lanes_[t].q.empty()) t = (t + 1) % lanes_.size();
      Lane& lane = lanes_[t];
      if (lane.deficit >= lane.q.front().page_count) return t;
      lane.deficit += kDrrQuantumPages * weight(t);
      rr_cursor_ = static_cast<sim::TenantId>(t + 1);
    }
  }
  // The other rules are an argmin over the backlogged lanes; a tie keeps
  // the lowest tenant id.
  std::size_t best = lanes_.size();
  for (std::size_t t = 0; t < lanes_.size(); ++t) {
    if (!lanes_[t].q.empty() && (best == lanes_.size() || before(t, best))) {
      best = t;
    }
  }
  return best;
}

bool Scheduler::before(std::size_t a, std::size_t b) const {
  const Item& x = lanes_[a].q.front();
  const Item& y = lanes_[b].q.front();
  switch (config_.policy) {
    case Policy::kWfq:
      return std::tie(x.start_tag, x.seq) < std::tie(y.start_tag, y.seq);
    case Policy::kWeightedShare:
      // served_pages / weight, exact via cross-multiplication.
      return lanes_[a].served_pages * weight(b) <
             lanes_[b].served_pages * weight(a);
    case Policy::kFifo:
    case Policy::kDrr:
      break;
  }
  return x.seq < y.seq;
}

std::vector<std::uint64_t> Scheduler::pending_requests() const {
  std::vector<std::uint64_t> out;
  out.reserve(pending_);
  for (const Lane& lane : lanes_) {
    for (std::size_t i = 0; i < lane.q.size(); ++i) {
      out.push_back(lane.q.at(i).request_index);
    }
  }
  return out;
}

void Scheduler::clear() {
  for (Lane& lane : lanes_) {
    lane.q.clear();
    lane.deficit = 0;
  }
  pending_ = 0;
  outstanding_ = 0;
}

void Scheduler::save_state(snapshot::StateWriter& w) const {
  w.tag("SCHD");
  w.u8(static_cast<std::uint8_t>(config_.policy));
  w.u64(outstanding_);
  w.u64(decision_seq_);
  w.u64(next_seq_);
  w.u64(vtime_);
  w.u32(rr_cursor_);
  w.u64(lanes_.size());
  for (const Lane& lane : lanes_) {
    w.u64(lane.last_finish);
    w.u64(lane.deficit);
    w.u64(lane.served_pages);
    w.u64(lane.q.size());
    for (std::size_t i = 0; i < lane.q.size(); ++i) {
      const Item& item = lane.q.at(i);
      w.u64(item.request_index);
      w.u32(item.page_count);
      w.u64(item.enqueued_at);
      w.u64(item.seq);
      w.u64(item.start_tag);
      w.u64(item.finish_tag);
    }
  }
}

std::vector<std::pair<Scheduler::Item, std::uint64_t>> Scheduler::load_state(
    snapshot::StateReader& r) {
  r.tag("SCHD");
  const auto p = static_cast<Policy>(r.u8());
  if (p != config_.policy) {
    throw snapshot::SnapshotError(
        "snapshot: scheduler policy mismatch at offset " +
            std::to_string(r.offset()) + ": device configured for " +
            std::string(policy_name(config_.policy)) +
            ", payload carries " + std::string(policy_name(p)),
        r.offset());
  }
  outstanding_ = r.u64();
  decision_seq_ = r.u64();
  next_seq_ = r.u64();
  vtime_ = r.u64();
  rr_cursor_ = r.u32();
  const std::uint64_t nlanes = r.checked_count(4 * 8);
  lanes_.assign(nlanes, Lane{});
  pending_ = 0;
  std::vector<std::pair<Item, std::uint64_t>> loaded;
  for (Lane& lane : lanes_) {
    lane.last_finish = r.u64();
    lane.deficit = r.u64();
    lane.served_pages = r.u64();
    const std::uint64_t nitems = r.checked_count(8 + 4 + 4 * 8);
    lane.q.reserve(nitems);
    for (std::uint64_t i = 0; i < nitems; ++i) {
      const std::uint64_t at = r.offset();
      Item item;
      item.request_index = r.u64();
      item.page_count = r.u32();
      item.enqueued_at = r.u64();
      item.seq = r.u64();
      item.start_tag = r.u64();
      item.finish_tag = r.u64();
      lane.q.push_back(item);
      loaded.emplace_back(item, at);
    }
    pending_ += nitems;
  }
  return loaded;
}

void Scheduler::check_invariants() const {
  if (config_.max_outstanding_requests > 0) {
    SSDK_CHECK_MSG(outstanding_ <= config_.max_outstanding_requests,
                   "sched: outstanding " + std::to_string(outstanding_) +
                       " exceeds the admission window");
  } else if (config_.policy == Policy::kFifo) {
    // An unlimited window admits synchronously, so at most the one
    // request whose arrival hook is currently running may be pending (a
    // fork taken inside the hook copies exactly that state; the copy's
    // run loop admits it on entry).
    SSDK_CHECK_MSG(pending_ <= 1,
                   "sched: fifo with an unlimited window holds " +
                       std::to_string(pending_) +
                       " pending requests outside a pump");
  }
  std::size_t queued = 0;
  for (std::size_t t = 0; t < lanes_.size(); ++t) {
    const Lane& lane = lanes_[t];
    std::uint64_t prev_start = 0;
    for (std::size_t i = 0; i < lane.q.size(); ++i) {
      const Item& item = lane.q.at(i);
      ++queued;
      SSDK_CHECK_MSG(item.page_count > 0,
                     "sched: tenant " + std::to_string(t) +
                         " queues a zero-page request");
      SSDK_CHECK_MSG(item.seq < next_seq_,
                     "sched: queued item carries seq " +
                         std::to_string(item.seq) + " >= next_seq");
      SSDK_CHECK_MSG(item.start_tag >= prev_start &&
                         item.finish_tag >= item.start_tag,
                     "sched: tenant " + std::to_string(t) +
                         " has non-monotone WFQ tags");
      prev_start = item.start_tag;
    }
    SSDK_CHECK_MSG(
        lane.q.empty() || lane.last_finish >= lane.q.at(lane.q.size() - 1)
                                                  .finish_tag,
        "sched: tenant " + std::to_string(t) +
            " last_finish behind its queued tail");
  }
  SSDK_CHECK_MSG(queued == pending_,
                 "sched: pending counter " + std::to_string(pending_) +
                     " != queued items " + std::to_string(queued));
}

std::unique_ptr<Scheduler> make_scheduler(const SchedConfig& config) {
  return std::make_unique<Scheduler>(config);
}

}  // namespace ssdk::sched
