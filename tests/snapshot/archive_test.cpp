// Archive-layer tests: scalar/vector round-trips, the SSDKSNP1 container,
// and — most importantly — the corruption paths. A damaged snapshot must
// always surface as SnapshotError with the failing offset and an
// expected/found description, never as UB or garbage state.
#include "snapshot/archive.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace ssdk::snapshot {
namespace {

TEST(Archive, ScalarRoundTrip) {
  StateWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.tag("TEST");

  StateReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_NO_THROW(r.tag("TEST"));
  EXPECT_TRUE(r.exhausted());
}

TEST(Archive, VectorRoundTrip) {
  StateWriter w;
  const std::vector<std::uint64_t> a{1, 2, ~std::uint64_t{0}};
  const std::vector<std::uint32_t> b{};
  const std::vector<double> c{-1.5, 0.0, 1e300};
  w.vec_u64(a);
  w.vec_u32(b);
  w.vec_f64(c);

  StateReader r(w.buffer());
  EXPECT_EQ(r.vec_u64(), a);
  EXPECT_EQ(r.vec_u32(), b);
  EXPECT_EQ(r.vec_f64(), c);
  EXPECT_TRUE(r.exhausted());
}

TEST(Archive, TruncatedReadThrowsWithOffset) {
  StateWriter w;
  w.u32(7);
  StateReader r(w.buffer());
  r.u32();
  try {
    r.u64();
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), 4u);
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("offset 4"), std::string::npos);
  }
}

TEST(Archive, TagMismatchNamesBothTags) {
  StateWriter w;
  w.tag("AAAA");
  StateReader r(w.buffer());
  try {
    r.tag("BBBB");
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'BBBB'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'AAAA'"), std::string::npos) << msg;
    EXPECT_EQ(e.offset(), 0u);
  }
}

TEST(Archive, InvalidBoolThrows) {
  StateWriter w;
  w.u8(2);
  StateReader r(w.buffer());
  EXPECT_THROW(r.boolean(), SnapshotError);
}

TEST(Archive, ImplausibleCountRejectedBeforeAllocation) {
  StateWriter w;
  w.u64(~std::uint64_t{0});  // length prefix claiming 2^64-1 elements
  StateReader r(w.buffer());
  try {
    r.vec_u64();
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }
}

std::string container_bytes(PayloadKind kind,
                            const std::vector<char>& payload) {
  std::ostringstream os;
  write_container(os, kind, payload);
  return os.str();
}

TEST(Container, RoundTrip) {
  const std::vector<char> payload{'h', 'e', 'l', 'l', 'o'};
  const std::string file = container_bytes(PayloadKind::kDevice, payload);
  std::istringstream is(file);
  EXPECT_EQ(read_container(is, PayloadKind::kDevice), payload);
}

TEST(Container, EmptyPayloadRoundTrips) {
  const std::string file = container_bytes(PayloadKind::kCampaign, {});
  std::istringstream is(file);
  EXPECT_TRUE(read_container(is, PayloadKind::kCampaign).empty());
}

TEST(Container, BadMagicThrowsAtOffsetZero) {
  std::string file = container_bytes(PayloadKind::kDevice, {'x'});
  file[0] = 'Z';
  std::istringstream is(file);
  try {
    read_container(is, PayloadKind::kDevice);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(Container, UnsupportedVersionThrows) {
  std::string file = container_bytes(PayloadKind::kDevice, {'x'});
  file[8] = 99;  // version field follows the 8-byte magic
  std::istringstream is(file);
  try {
    read_container(is, PayloadKind::kDevice);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
    EXPECT_NE(msg.find("99"), std::string::npos) << msg;
  }
}

TEST(Container, WrongPayloadKindThrows) {
  const std::string file = container_bytes(PayloadKind::kCampaign, {'x'});
  std::istringstream is(file);
  EXPECT_THROW(read_container(is, PayloadKind::kDevice), SnapshotError);
}

TEST(Container, TruncatedPayloadThrows) {
  const std::string file = container_bytes(PayloadKind::kDevice,
                                           {'a', 'b', 'c', 'd'});
  const std::string cut = file.substr(0, file.size() - 2);
  std::istringstream is(cut);
  try {
    read_container(is, PayloadKind::kDevice);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  }
}

TEST(Container, FlippedPayloadByteFailsChecksum) {
  std::string file = container_bytes(PayloadKind::kDevice,
                                     {'a', 'b', 'c', 'd'});
  file[file.size() - 1] ^= 0x40;
  std::istringstream is(file);
  try {
    read_container(is, PayloadKind::kDevice);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(Container, FileVariantReportsUnopenablePath) {
  EXPECT_THROW(
      read_container_file("/nonexistent/dir/snap.bin", PayloadKind::kDevice),
      SnapshotError);
}

}  // namespace
}  // namespace ssdk::snapshot
