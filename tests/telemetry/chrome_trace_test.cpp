#include "telemetry/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

#include "ssd/ssd.hpp"
#include "trace/catalog.hpp"

namespace ssdk::telemetry {
namespace {

// Minimal recursive-descent JSON validator: enough to guarantee the export
// is syntactically well-formed (what chrome://tracing / Perfetto requires
// before any semantic interpretation).
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

Tracer traced_sample() {
  Tracer tracer;
  TraceEvent bus;
  bus.begin = 1000;
  bus.end = 21'000;
  bus.kind = SpanKind::kBusTransfer;
  bus.op = OpClass::kHostRead;
  bus.channel = 2;
  bus.tenant = 1;
  bus.request_id = 5;
  tracer.record(bus);
  TraceEvent flash;
  flash.begin = 21'000;
  flash.end = 62'160;
  flash.kind = SpanKind::kFlashRead;
  flash.op = OpClass::kHostRead;
  flash.channel = 2;
  flash.unit = 17;
  flash.tenant = 1;
  tracer.record(flash);
  TraceEvent req;
  req.begin = 0;
  req.end = 70'000;
  req.kind = SpanKind::kRequest;
  req.op = OpClass::kHostRead;
  req.tenant = 1;
  req.request_id = 5;
  tracer.record(req);
  tracer.record_point(30'000, SpanKind::kGcVictim, sim::kInternalTenant, 0,
                      3, 12);
  KeeperDecision d;
  d.time = 50'000;
  d.strategy = "4:2:1:1";
  d.features = "props=[0.4,\"quoted\"]\nnewline";
  d.changed = true;
  tracer.record_decision(d);
  return tracer;
}

TEST(ChromeTrace, OutputIsWellFormedJson) {
  std::ostringstream os;
  write_chrome_trace(os, traced_sample());
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(ChromeTrace, EmptyTraceIsWellFormedJson) {
  std::ostringstream os;
  write_chrome_trace(os, Tracer{});
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(ChromeTrace, TracksAndSpansPresent) {
  std::ostringstream os;
  write_chrome_trace(os, traced_sample());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"channel buses\""), std::string::npos);
  EXPECT_NE(json.find("\"flash units\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant 1\""), std::string::npos);
  EXPECT_NE(json.find("\"keeper\""), std::string::npos);
  EXPECT_NE(json.find("\"bus_transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"flash_read\""), std::string::npos);
  // Timestamps are microseconds: 21000ns -> 21.000us.
  EXPECT_NE(json.find("\"ts\":21.000"), std::string::npos);
  // Request spans become async begin/end pairs.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  // Keeper decision carries strategy + features (escaped).
  EXPECT_NE(json.find("strategy 4:2:1:1"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\nnewline"), std::string::npos);
}

std::uint64_t occurrences(const std::string& text, const std::string& what) {
  std::uint64_t n = 0;
  for (auto at = text.find(what); at != std::string::npos;
       at = text.find(what, at + what.size())) {
    ++n;
  }
  return n;
}

// Regression: the exporter had no case for kSchedWait, so the admission
// waits of a finite-window WFQ run never reached the JSON, and a tenant
// that only waited got no track name.
TEST(ChromeTrace, SchedWaitSpansRenderOnTenantTrack) {
  ssd::SsdOptions options;
  options.sched.policy = sched::Policy::kWfq;
  options.sched.max_outstanding_requests = 2;
  options.sched.shares.push_back({.tenant = 0, .weight = 4});
  Tracer tracer;
  ssd::Ssd device(options);
  device.set_tracer(&tracer);
  device.submit(trace::build_mix(1, 0.1, 600));
  device.run_to_completion();
  std::uint64_t waits = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind == SpanKind::kSchedWait) ++waits;
  }
  ASSERT_GT(waits, 0u);

  std::ostringstream os;
  write_chrome_trace(os, tracer);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(occurrences(json, "{\"ph\":\"b\",\"cat\":\"lifecycle\","
                              "\"name\":\"sched_wait\""),
            waits);
  EXPECT_EQ(occurrences(json, "{\"ph\":\"e\",\"cat\":\"lifecycle\","
                              "\"name\":\"sched_wait\""),
            waits);

  Tracer only_waits;
  TraceEvent wait;
  wait.begin = 1000;
  wait.end = 5000;
  wait.kind = SpanKind::kSchedWait;
  wait.tenant = 7;
  only_waits.record(wait);
  std::ostringstream waiting;
  write_chrome_trace(waiting, only_waits);
  EXPECT_NE(waiting.str().find("\"tenant 7\""), std::string::npos)
      << waiting.str();
}

TEST(JsonEscape, ControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

}  // namespace
}  // namespace ssdk::telemetry
