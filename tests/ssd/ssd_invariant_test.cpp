// Corruption-seeding tests for the checked-build invariant audit.
//
// Each test takes a healthy mid-simulation device, breaks exactly one
// structural invariant — through the FTL's public mutators or by byte
// surgery on a raw save_state() payload — and proves check_invariants()
// (or the audit that runs automatically after load_state) detects it.
// The healthy-path tests pin the other direction: a clean device, its
// fork, and a save/load round trip must all audit clean, so the audit can
// run inside full replays without false alarms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "snapshot/archive.hpp"
#include "ssd/ssd.hpp"
#include "util/check.hpp"

namespace ssdk::ssd {
namespace {

sim::IoRequest make_req(std::uint64_t id, sim::TenantId tenant,
                        sim::OpType type, std::uint64_t lpn,
                        std::uint32_t pages, SimTime arrival) {
  sim::IoRequest r;
  r.id = id;
  r.tenant = tenant;
  r.type = type;
  r.lpn = lpn;
  r.page_count = pages;
  r.arrival = arrival;
  return r;
}

SsdOptions tiny_options() {
  SsdOptions options;
  options.geometry = sim::Geometry::tiny();
  return options;
}

/// tiny_options() plus the power-loss machinery: OOB metadata is
/// materialized, and a small write buffer plus periodic flushes keep
/// volatile pages and flush barriers live mid-run.
SsdOptions powered_options() {
  SsdOptions options = tiny_options();
  options.power.enabled = true;
  options.write_buffer.capacity_pages = 4;
  return options;
}

/// A tiny device paused mid-workload: mapped pages, pending events,
/// in-flight ops — every structure the audit walks is populated.
std::unique_ptr<Ssd> busy_device(std::uint64_t pause_at = 48) {
  auto device = std::make_unique<Ssd>(tiny_options());
  std::vector<sim::IoRequest> reqs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto type = (i % 3 == 2) ? sim::OpType::kRead : sim::OpType::kWrite;
    reqs.push_back(make_req(i, 0, type, i % 24, 1, 50 * i));
  }
  device->submit(reqs);
  device->run_until_arrival(pause_at);
  return device;
}

/// busy_device() on powered_options(): every eighth request is a flush
/// barrier, so OOB metadata, buffered volatile pages, and flush barriers
/// are all populated at the pause point.
std::unique_ptr<Ssd> busy_powered_device(std::uint64_t pause_at = 48) {
  auto device = std::make_unique<Ssd>(powered_options());
  std::vector<sim::IoRequest> reqs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    auto type = sim::OpType::kWrite;
    if (i % 8 == 7) {
      type = sim::OpType::kFlush;
    } else if (i % 3 == 2) {
      type = sim::OpType::kRead;
    }
    reqs.push_back(make_req(i, 0, type, i % 24, 1, 50 * i));
  }
  device->submit(reqs);
  device->run_until_arrival(pause_at);
  return device;
}

// --- byte-surgery helpers ----------------------------------------------------

std::size_t find_tag(const std::vector<char>& buf, const char* tag) {
  for (std::size_t i = 0; i + 4 <= buf.size(); ++i) {
    if (std::memcmp(buf.data() + i, tag, 4) == 0) return i;
  }
  ADD_FAILURE() << "tag " << tag << " not found in snapshot payload";
  return 0;
}

std::uint64_t read_u64(const std::vector<char>& buf, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, buf.data() + pos, sizeof(v));
  return v;
}

void write_u64(std::vector<char>& buf, std::size_t pos, std::uint64_t v) {
  std::memcpy(buf.data() + pos, &v, sizeof(v));
}

void write_u32(std::vector<char>& buf, std::size_t pos, std::uint32_t v) {
  std::memcpy(buf.data() + pos, &v, sizeof(v));
}

std::uint32_t read_u32(const std::vector<char>& buf, std::size_t pos) {
  std::uint32_t v = 0;
  std::memcpy(&v, buf.data() + pos, sizeof(v));
  return v;
}

/// Offset of unit 0's write queue (its u64 length) in a save_state payload.
/// UNIT: tag, u64 count, then per unit: bool busy, u64 busy_until and three
/// rings (u64 size + u32 op ids): read_wait, erase_wait, write_q.
std::size_t unit0_write_queue(const std::vector<char>& bytes) {
  std::size_t pos = find_tag(bytes, "UNIT") + 4 + 8 + 1 + 8;
  for (int ring = 0; ring < 2; ++ring) pos += 8 + read_u64(bytes, pos) * 4;
  return pos;
}

/// Serialize `device`, let `corrupt` patch the raw payload, and load the
/// result into a second identically-constructed device. The checked-build
/// audit runs inside load_state; in normal builds the explicit audit
/// afterwards does the same walk.
void expect_corruption_detected(
    const Ssd& device, const std::function<void(std::vector<char>&)>& corrupt,
    const char* label, const SsdOptions& options = tiny_options()) {
  snapshot::StateWriter w;
  device.save_state(w);
  std::vector<char> bytes = w.take();
  corrupt(bytes);

  Ssd reloaded(options);
  try {
    snapshot::StateReader r(bytes);
    reloaded.load_state(r);
    reloaded.check_invariants();
    FAIL() << label << ": corruption was not detected";
  } catch (const util::InvariantViolation&) {
    SUCCEED();
  }
}

// --- healthy paths must audit clean ------------------------------------------

TEST(SsdInvariants, CleanDeviceAuditsClean) {
  auto device = busy_device();
  EXPECT_NO_THROW(device->check_invariants());
  device->run_to_completion();
  EXPECT_NO_THROW(device->check_invariants());
}

TEST(SsdInvariants, ForkAuditsClean) {
  auto device = busy_device();
  auto copy = device->fork();
  EXPECT_NO_THROW(copy->check_invariants());
}

TEST(SsdInvariants, SaveLoadRoundTripAuditsClean) {
  auto device = busy_device();
  snapshot::StateWriter w;
  device->save_state(w);
  const std::vector<char> bytes = w.take();
  Ssd reloaded(tiny_options());
  snapshot::StateReader r(bytes);
  reloaded.load_state(r);
  EXPECT_NO_THROW(reloaded.check_invariants());
}

TEST(SsdInvariants, DefaultGeometryWorkloadAuditsClean) {
  Ssd device;  // paper-shaped small() geometry
  std::vector<sim::IoRequest> reqs;
  for (std::uint64_t i = 0; i < 128; ++i) {
    reqs.push_back(make_req(i, i % 2, sim::OpType::kWrite, i, 2, 20 * i));
  }
  device.submit(reqs);
  device.run_to_completion();
  EXPECT_NO_THROW(device.check_invariants());
}

// --- L2P bijection ------------------------------------------------------------

TEST(SsdInvariants, DetectsMappingToInvalidPage) {
  auto device = busy_device();
  // Repoint a mapped LPN at a page nothing ever wrote: the forward L2P
  // walk must see a mapping whose target is not valid.
  ASSERT_NE(device->ftl().mapping().lookup(0, 0), sim::kInvalidPpn);
  const sim::Ppn bogus = device->ftl().geometry().total_pages() - 1;
  ASSERT_FALSE(device->ftl().blocks().is_valid(bogus));
  device->ftl().mapping().update(0, 0, bogus);
  EXPECT_THROW(device->check_invariants(), util::InvariantViolation);
}

TEST(SsdInvariants, DetectsCrossMappedPages) {
  auto device = busy_device();
  // Point LPN 0 at LPN 1's physical page: both pages stay valid, counts
  // stay conserved, but the owner recorded in the block manager no longer
  // matches the mapping that reaches it.
  const sim::Ppn other = device->ftl().mapping().lookup(0, 1);
  ASSERT_NE(other, sim::kInvalidPpn);
  device->ftl().mapping().update(0, 0, other);
  EXPECT_THROW(device->check_invariants(), util::InvariantViolation);
}

TEST(SsdInvariants, DetectsOrphanValidPage) {
  auto device = busy_device();
  // Resurrect an invalidated page under an owner that maps nowhere: the
  // reverse walk must find a valid page unreachable through the mapping.
  const sim::Ppn old_home = device->ftl().mapping().lookup(0, 0);
  ASSERT_NE(old_home, sim::kInvalidPpn);
  // Arrivals must be non-decreasing device-wide, so the overwrite lands
  // after the whole original stream.
  device->submit(make_req(1000, 0, sim::OpType::kWrite, 0, 1, 50 * 64));
  device->run_to_completion();
  ASSERT_FALSE(device->ftl().blocks().is_valid(old_home))
      << "overwrite should have invalidated the old page";
  device->ftl().blocks().mark_valid(old_home, 0, 999'999);
  EXPECT_THROW(device->check_invariants(), util::InvariantViolation);
}

// --- event queue --------------------------------------------------------------
//
// The EVTQ loader checks every event's time, seq and kind, and its a/b
// payload once OPSL is loaded, so these corruptions are refused at load
// time with a SnapshotError instead of surfacing in the audit afterwards.

/// Serialize `device`, let `corrupt` patch the raw payload, and require
/// that loading it into a fresh device fails with a SnapshotError.
void expect_load_rejected(
    const Ssd& device, const std::function<void(std::vector<char>&)>& corrupt,
    const char* label) {
  snapshot::StateWriter w;
  device.save_state(w);
  std::vector<char> bytes = w.take();
  corrupt(bytes);

  Ssd reloaded(tiny_options());
  snapshot::StateReader r(bytes);
  EXPECT_THROW(reloaded.load_state(r), snapshot::SnapshotError) << label;
}

TEST(SsdInvariants, DetectsEventBeforeNow) {
  auto device = busy_device();
  ASSERT_GT(device->now(), 0u);
  expect_load_rejected(
      *device,
      [](std::vector<char>& bytes) {
        // EVTQ: tag, u64 next_seq, u64 count, then 33-byte events whose
        // first field is the timestamp. Schedule the first one at 0,
        // before the restored clock.
        const std::size_t evtq = find_tag(bytes, "EVTQ");
        ASSERT_GT(read_u64(bytes, evtq + 12), 0u) << "no pending events";
        write_u64(bytes, evtq + 20, 0);
      },
      "stale event timestamp");
}

TEST(SsdInvariants, DetectsDuplicateEventSeq) {
  auto device = busy_device();
  expect_load_rejected(
      *device,
      [](std::vector<char>& bytes) {
        const std::size_t evtq = find_tag(bytes, "EVTQ");
        ASSERT_GE(read_u64(bytes, evtq + 12), 2u) << "need two events";
        // Copy event 0's seq over event 1's: the unique total order dies.
        const std::uint64_t seq0 = read_u64(bytes, evtq + 20 + 8);
        write_u64(bytes, evtq + 20 + 33 + 8, seq0);
      },
      "duplicate event seq");
}

// --- op slab and write queues ---------------------------------------------------

TEST(SsdInvariants, DetectsOpSlabCorruption) {
  auto device = busy_device();
  expect_load_rejected(
      *device,
      [](std::vector<char>& bytes) {
        // OPSL: tag, u64 slot count, u64 free count and u32 free ids, then
        // a 47-byte record per slot in use, in id order. Free the in-use
        // op at the front of unit 0's write queue (list its id, drop its
        // record) while the queue still names it; the loader refuses the
        // queue entry.
        const std::size_t write_q = unit0_write_queue(bytes);
        ASSERT_GT(read_u64(bytes, write_q), 0u) << "unit 0 has no queued write";
        const std::uint32_t op = read_u32(bytes, write_q + 8);
        const std::size_t opsl = find_tag(bytes, "OPSL");
        const std::uint64_t nfree = read_u64(bytes, opsl + 12);
        std::vector<bool> free(read_u64(bytes, opsl + 4), false);
        for (std::uint64_t k = 0; k < nfree; ++k) {
          free[read_u32(bytes, opsl + 20 + 4 * k)] = true;
        }
        const auto rank = std::count(free.begin(), free.begin() + op, false);
        const std::size_t list_end = opsl + 20 + 4 * nfree;
        const auto record =
            bytes.begin() + static_cast<std::ptrdiff_t>(list_end + 47 * rank);
        bytes.erase(record, record + 47);
        char id[4];
        std::memcpy(id, &op, sizeof(id));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(list_end), id,
                     id + 4);
        write_u64(bytes, opsl + 12, nfree + 1);
      },
      "op slab free list");
}

TEST(SsdInvariants, RejectsOutOfRangeWriteQueueOpId) {
  auto device = busy_device();
  snapshot::StateWriter w;
  device->save_state(w);
  std::vector<char> bytes = w.take();
  // Point unit 0's front write past the end of the op slab; the load
  // rebuilds the write-grant keys from that op and must refuse it.
  const std::size_t pos = unit0_write_queue(bytes);
  ASSERT_GT(read_u64(bytes, pos), 0u) << "unit 0 has no queued write";
  const std::uint64_t nops = read_u64(bytes, find_tag(bytes, "OPSL") + 4);
  write_u32(bytes, pos + 8, static_cast<std::uint32_t>(nops + 1000));

  Ssd reloaded(tiny_options());
  snapshot::StateReader r(bytes);
  EXPECT_THROW(reloaded.load_state(r), snapshot::SnapshotError);
}

// --- power-loss & OOB serialized state ----------------------------------------
//
// Every field the power/OOB work added to the snapshot format gets a
// seeded corruption here: OPSL oob_seq, the OOB_ owner/seq arrays, the REQS
// tallies' volatile_pages, and the PWRS power flag and flush-barrier
// records.

TEST(SsdInvariants, DetectsOpOobSeqCorruption) {
  auto device = busy_powered_device();
  expect_corruption_detected(
      *device,
      [](std::vector<char>& bytes) {
        // OPSL: tag, u64 slot count, u64 free count and u32 free ids,
        // then a 55-byte record per slot in use: kind byte at +8, and on
        // a power-model device the oob_seq u64 at +47. Give every
        // in-flight write an oob_seq far beyond the OOB store's next_seq;
        // the op-slab audit range-checks it.
        const std::size_t opsl = find_tag(bytes, "OPSL");
        const std::uint64_t nfree = read_u64(bytes, opsl + 12);
        const std::uint64_t in_use = read_u64(bytes, opsl + 4) - nfree;
        const std::size_t records = opsl + 20 + 4 * nfree;
        std::size_t patched = 0;
        for (std::uint64_t i = 0; i < in_use; ++i) {
          const std::size_t rec = records + i * 55;
          // Wire values of the (private) OpKind enum: 1 = kHostWrite,
          // 5 = kFlushWrite — the two kinds the audit range-checks.
          const auto kind = static_cast<std::uint8_t>(bytes[rec + 8]);
          if (kind == 1 || kind == 5) {
            write_u64(bytes, rec + 47, 0xFFFF'FFFF'FFFFULL);
            ++patched;
          }
        }
        ASSERT_GT(patched, 0u) << "no in-flight write op to corrupt";
      },
      "op oob_seq", powered_options());
}

/// First physical page that is both valid and carries readable OOB data
/// (its program completed), or kInvalidPpn when none exists.
sim::Ppn first_data_page(const Ssd& device) {
  const auto& ftl = device.ftl();
  for (sim::Ppn p = 0; p < ftl.geometry().total_pages(); ++p) {
    if (ftl.blocks().is_valid(p) && ftl.oob().state(p) == ftl::OobState::kData) {
      return p;
    }
  }
  return sim::kInvalidPpn;
}

TEST(SsdInvariants, DetectsOobOwnerCorruption) {
  auto device = busy_powered_device();
  const sim::Ppn target = first_data_page(*device);
  ASSERT_NE(target, sim::kInvalidPpn) << "no programmed page to corrupt";
  expect_corruption_detected(
      *device,
      [target](std::vector<char>& bytes) {
        // OOB_: tag, bool enabled, u64 next_seq, vec_u64 owner (u64 size
        // + entries), vec_u64 seq, ... Flip the low (LPN) bit of the
        // target's packed owner: the OOB now disagrees with the block
        // manager's owner table for a valid page.
        const std::size_t oob = find_tag(bytes, "OOB_");
        const std::size_t owner_pos = oob + 21 + target * 8;
        write_u64(bytes, owner_pos, read_u64(bytes, owner_pos) ^ 1);
      },
      "OOB owner array", powered_options());
}

TEST(SsdInvariants, DetectsOobSeqCorruption) {
  auto device = busy_powered_device();
  const sim::Ppn target = first_data_page(*device);
  ASSERT_NE(target, sim::kInvalidPpn) << "no programmed page to corrupt";
  const std::uint64_t npages = device->ftl().geometry().total_pages();
  // The seq array follows the owner array; zero the target's write seq. A
  // data page must carry a seq in (0, next_seq): the OOB_ loader refuses
  // it with a SnapshotError naming its offset, before any audit.
  snapshot::StateWriter w;
  device->save_state(w);
  std::vector<char> bytes = w.take();
  const std::size_t seq_pos = find_tag(bytes, "OOB_") + 29 + npages * 8 +
                              target * 8;
  write_u64(bytes, seq_pos, 0);

  Ssd reloaded(powered_options());
  snapshot::StateReader r(bytes);
  try {
    reloaded.load_state(r);
    FAIL() << "OOB seq corruption was not detected";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("carries seq 0"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.offset(), seq_pos);
  }
}

TEST(SsdInvariants, DetectsVolatilePageOverCount) {
  auto device = busy_powered_device();
  // REQS: tag, u64 count, 37-byte records, then the tally list: u64
  // count and a (u32 failed, u32 volatile_pages) pair per request. Claim
  // request 0 absorbed more buffered pages than it has pages. The REQS
  // loader refuses the count with a SnapshotError naming its offset,
  // before any audit.
  snapshot::StateWriter w;
  device->save_state(w);
  std::vector<char> bytes = w.take();
  const std::size_t reqs = find_tag(bytes, "REQS");
  const std::uint64_t nreq = read_u64(bytes, reqs + 4);
  const std::size_t tallies = reqs + 12 + 37 * nreq;
  ASSERT_GT(read_u64(bytes, tallies), 0u) << "no request tallies";
  const std::size_t volatile_pos = tallies + 8 + 4;
  write_u32(bytes, volatile_pos, 0xDEAD);

  Ssd reloaded(powered_options());
  snapshot::StateReader r(bytes);
  try {
    reloaded.load_state(r);
    FAIL() << "volatile-page over-count was not detected";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("volatile page count"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.offset(), volatile_pos);
  }
}

TEST(SsdInvariants, DetectsPoweredOffFlagFlip) {
  auto device = busy_device();
  expect_corruption_detected(
      *device,
      [](std::vector<char>& bytes) {
        // PWRS: tag, bool powered_off, bool cut_fired, barriers, lost
        // keys. Claiming the device is off while events and ops are
        // still in flight violates the powered-off quiescence invariant.
        const std::size_t pwrs = find_tag(bytes, "PWRS");
        bytes[pwrs + 4] = '\1';
      },
      "powered_off flag");
}

TEST(SsdInvariants, DetectsFlushBarrierCountDrift) {
  // A barrier only exists between a flush's arrival and its last fenced
  // program's completion; scan pause points until one holds a live
  // barrier, then overstate its remaining count.
  for (std::uint64_t pause = 8; pause < 64; ++pause) {
    auto device = busy_powered_device(pause);
    snapshot::StateWriter probe;
    device->save_state(probe);
    const std::vector<char> raw = probe.take();
    const std::size_t pwrs = find_tag(raw, "PWRS");
    if (read_u64(raw, pwrs + 6) == 0) continue;  // no live barrier here
    expect_corruption_detected(
        *device,
        [](std::vector<char>& bytes) {
          // PWRS barrier records are {u64 request, u64 threshold,
          // u32 remaining} starting at +14; bump barrier 0's count.
          const std::size_t at = find_tag(bytes, "PWRS");
          std::uint32_t rem = 0;
          std::memcpy(&rem, bytes.data() + at + 30, 4);
          write_u32(bytes, at + 30, rem + 1);
        },
        "flush barrier remaining", powered_options());
    return;
  }
  FAIL() << "no pause point held a live flush barrier";
}

// --- periodic audit hook ------------------------------------------------------

TEST(SsdInvariants, PeriodicAuditCatchesCorruptionMidRun) {
  auto device = busy_device();
  device->set_audit_interval(1);  // audit after every handled arrival
  const sim::Ppn bogus = device->ftl().geometry().total_pages() - 1;
  ASSERT_FALSE(device->ftl().blocks().is_valid(bogus));
  device->ftl().mapping().update(0, 0, bogus);
  EXPECT_THROW(device->run_to_completion(), util::InvariantViolation);
}

TEST(SsdInvariants, PeriodicAuditIsScheduleNeutral) {
  // Audits observe, never mutate: the same workload with and without the
  // per-arrival audit must produce identical metrics and final clocks.
  auto plain = busy_device(~std::uint64_t{0});
  auto audited = std::make_unique<Ssd>(tiny_options());
  audited->set_audit_interval(1);
  std::vector<sim::IoRequest> reqs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto type = (i % 3 == 2) ? sim::OpType::kRead : sim::OpType::kWrite;
    reqs.push_back(make_req(i, 0, type, i % 24, 1, 50 * i));
  }
  audited->submit(reqs);
  audited->run_to_completion();
  EXPECT_EQ(plain->now(), audited->now());
  EXPECT_EQ(plain->metrics().tenant(0).avg_write_us(),
            audited->metrics().tenant(0).avg_write_us());
}

}  // namespace
}  // namespace ssdk::ssd
