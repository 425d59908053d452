// Exporter round-trips (src/phch/obs/export.h, prom.h): the metrics JSON,
// the chrome trace, and the Prometheus text exposition are re-parsed with
// strict parsers — not grepped — so escaping bugs (raw newlines or control
// characters inside string literals, broken label quoting) fail the test
// instead of producing files that only *look* parseable. Hostile span/mark
// labels containing quotes, backslashes, newlines and control bytes
// exercise the escaping paths directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "phch/core/deterministic_table.h"
#include "phch/core/table_common.h"
#include "phch/obs/export.h"
#include "phch/obs/prom.h"
#include "phch/obs/registry.h"
#include "phch/obs/telemetry.h"
#include "phch/obs/trace.h"
#include "phch/parallel/scheduler.h"

namespace phch {
namespace {

// ---------------------------------------------------------------------------
// A deliberately strict recursive-descent JSON parser: no trailing commas,
// no unescaped control characters in strings, full escape validation. It
// only validates + decodes strings; the tests assert on well-formedness and
// on specific decoded keys.

class json_checker {
 public:
  explicit json_checker(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit();
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
    for (;;) {
      skip_ws();
      if (peek() != '"' || !string_lit()) return false;
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
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string_lit() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        strings_.push_back(out);
        return true;
      }
      if (c < 0x20) return false;  // raw control char: invalid JSON
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_ + static_cast<std::size_t>(i)];
              if (!std::isxdigit(static_cast<unsigned char>(h))) return false;
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            pos_ += 4;
            out += static_cast<char>(code < 0x80 ? code : '?');
            break;
          }
          default: return false;  // unknown escape
        }
        continue;
      }
      out += static_cast<char>(c);
      ++pos_;
    }
    return false;  // unterminated
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

  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::vector<std::string> strings_;
};

std::string slurp(const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool contains(const std::vector<std::string>& haystack, const std::string& s) {
  for (const auto& h : haystack) {
    if (h == s) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Strict-enough Prometheus text-exposition validator (format 0.0.4): every
// line is a comment or `name{labels} value`; label values must be properly
// quoted/escaped; per histogram, bucket counts are cumulative and the +Inf
// bucket equals _count. Returns an empty string on success, else the error.

struct prom_sample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;
};

bool valid_metric_char(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':')
    return true;
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

std::string parse_prometheus(const std::string& text,
                             std::vector<prom_sample>* out) {
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const std::string where = "line " + std::to_string(lineno) + ": " + line;
    if (line.empty()) return "empty line not allowed: " + where;
    if (line[0] == '#') continue;  // HELP/TYPE/comment
    std::size_t i = 0;
    prom_sample s;
    while (i < line.size() && valid_metric_char(line[i], i == 0)) {
      s.name += line[i++];
    }
    if (s.name.empty()) return "no metric name: " + where;
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::string lname;
        while (i < line.size() && valid_metric_char(line[i], lname.empty())) {
          lname += line[i++];
        }
        if (lname.empty() || i >= line.size() || line[i] != '=')
          return "bad label name: " + where;
        ++i;
        if (i >= line.size() || line[i] != '"')
          return "label value not quoted: " + where;
        ++i;
        std::string lval;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            if (i + 1 >= line.size()) return "dangling escape: " + where;
            const char e = line[i + 1];
            if (e == '\\') lval += '\\';
            else if (e == '"') lval += '"';
            else if (e == 'n') lval += '\n';
            else return "unknown label escape: " + where;
            i += 2;
            continue;
          }
          lval += line[i++];
        }
        if (i >= line.size()) return "unterminated label value: " + where;
        ++i;  // closing quote
        s.labels.emplace_back(lname, lval);
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') return "unterminated labels: " + where;
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') return "no value separator: " + where;
    ++i;
    const std::string num = line.substr(i);
    if (num == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      s.value = std::strtod(num.c_str(), &end);
      if (end == num.c_str() || *end != '\0') return "bad value: " + where;
    }
    out->push_back(s);
  }
  return "";
}

const std::string* label_of(const prom_sample& s, const std::string& k) {
  for (const auto& [name, value] : s.labels) {
    if (name == k) return &value;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

TEST(ExportersOff, WritersRefuseWhenCompiledOut) {
  if (obs::compiled) GTEST_SKIP() << "telemetry compiled in";
  EXPECT_FALSE(obs::write_metrics_json("/tmp/phch_exp_off.json"));
  EXPECT_FALSE(obs::write_chrome_trace("/tmp/phch_exp_off_trace.json"));
  // The exposition writer still returns a parseable (comment-only) page.
  std::vector<prom_sample> samples;
  EXPECT_EQ(parse_prometheus(obs::render_prometheus(), &samples), "");
  EXPECT_TRUE(samples.empty());
}

class ExportersOn : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::compiled) GTEST_SKIP() << "telemetry compiled out";
    obs::reset();
  }
  void TearDown() override {
    if (obs::compiled) scheduler::get().set_num_workers(4);
  }
};

// Labels chosen to break naive writers: quotes, backslashes, newline, tab,
// and a raw control byte.
constexpr const char kHostile[] = "ho\"st\\ile\nlab\tel\x01!";

TEST_F(ExportersOn, MetricsJsonRoundTripsHostileLabels) {
  {
    obs::span sp(kHostile);
    deterministic_table<> t(128);
    t.insert(7);
  }
  obs::mark(kHostile);
  const char* path = "/tmp/phch_exp_metrics.json";
  ASSERT_TRUE(obs::write_metrics_json(path));
  const std::string text = slurp(path);
  json_checker jc(text);
  ASSERT_TRUE(jc.parse()) << text;
  // The hostile mark label must survive the escape/unescape round trip
  // bit-for-bit (control byte included).
  EXPECT_TRUE(contains(jc.strings(), kHostile));
  EXPECT_TRUE(contains(jc.strings(), "insert_commits"));
  EXPECT_TRUE(contains(jc.strings(), "histograms"));
  EXPECT_TRUE(contains(jc.strings(), "probe_depth"));
}

TEST_F(ExportersOn, ChromeTraceRoundTripsHostileLabels) {
  {
    obs::span sp(kHostile);
    deterministic_table<> t(128);
    t.insert(7);
    (void)t.find(7);
  }
  obs::mark(kHostile);
  const char* path = "/tmp/phch_exp_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  const std::string text = slurp(path);
  json_checker jc(text);
  ASSERT_TRUE(jc.parse()) << text;
  EXPECT_TRUE(contains(jc.strings(), kHostile));
  // Every mark carries its snapshot delta (counters and histograms).
  EXPECT_TRUE(contains(jc.strings(), "insert_commits"));
  EXPECT_TRUE(contains(jc.strings(), "probe_depth"));
}

TEST_F(ExportersOn, PrometheusExpositionIsWellFormed) {
  deterministic_table<> t(1024);
  [[maybe_unused]] const obs::scoped_registration reg(kHostile, t);
  for (std::uint64_t v = 1; v <= 200; ++v) t.insert(v);
  for (std::uint64_t v = 1; v <= 200; ++v) (void)t.find(v);

  std::vector<prom_sample> samples;
  const std::string err = parse_prometheus(obs::render_prometheus(), &samples);
  ASSERT_EQ(err, "");
  ASSERT_FALSE(samples.empty());

  double insert_ops = -1, find_ops = -1, erase_ops = -1;
  double bucket_inf = -1, hist_count = -1, prev_bucket = 0;
  bool saw_hostile_table = false;
  int table_series = 0;
  for (const auto& s : samples) {
    if (s.name == "phch_insert_ops_total") insert_ops = s.value;
    if (s.name == "phch_find_ops_total") find_ops = s.value;
    if (s.name == "phch_erase_ops_total") erase_ops = s.value;
    if (s.name == "phch_probe_depth_bucket") {
      // Cumulative within one histogram: each bucket >= the previous.
      EXPECT_GE(s.value, prev_bucket);
      prev_bucket = s.value;
      const std::string* le = label_of(s, "le");
      ASSERT_NE(le, nullptr);
      if (*le == "+Inf") bucket_inf = s.value;
    }
    if (s.name == "phch_probe_depth_count") hist_count = s.value;
    if (const std::string* tl = label_of(s, "table")) {
      // The hostile registry name must round-trip through label escaping.
      if (*tl == kHostile) saw_hostile_table = true;
      // Per-table series are gauges only; distributions are process-wide.
      const std::string gauges[] = {"phch_table_capacity",
                                    "phch_table_phase_epoch"};
      EXPECT_NE(std::find(std::begin(gauges), std::end(gauges), s.name),
                std::end(gauges))
          << s.name;
      ++table_series;
    }
  }
  ASSERT_GE(insert_ops, 0);
  ASSERT_GE(find_ops, 0);
  ASSERT_GE(erase_ops, 0);
  // Histogram completeness: +Inf bucket present and equal to _count.
  EXPECT_GE(bucket_inf, 0);
  EXPECT_EQ(bucket_inf, hist_count);
  // The probe-depth ledger, as scraped.
  EXPECT_EQ(hist_count, insert_ops + find_ops + erase_ops);
  EXPECT_TRUE(saw_hostile_table);
  EXPECT_EQ(table_series, 2);
}

TEST_F(ExportersOn, TypeLinesAreUniquePerMetric) {
  deterministic_table<> a(128), b(128);
  [[maybe_unused]] const obs::scoped_registration ra("a", a);
  [[maybe_unused]] const obs::scoped_registration rb("b", b);
  a.insert(1);
  b.insert(2);
  const std::string text = obs::render_prometheus();
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    EXPECT_FALSE(contains(seen, line)) << "duplicate: " << line;
    seen.push_back(line);
  }
  EXPECT_FALSE(seen.empty());
}

}  // namespace
}  // namespace phch
