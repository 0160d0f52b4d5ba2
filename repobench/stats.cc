#include "stats.h"

#include <cstdio>
#include <cstdlib>

namespace rb {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

u16 SpanRecorder::Intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<u16>(i);
    }
  }
  names_.push_back(name);
  return static_cast<u16>(names_.size() - 1);
}

u32 SpanRecorder::Add(u16 name, u32 parent, u64 start_ns, u64 end_ns) {
  const u32 id = Begin(name, parent);
  if (id != 0) {
    spans_[id - 1].start_ns = start_ns;
    spans_[id - 1].end_ns = end_ns;
  }
  return id;
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  std::vector<u64> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent == 0 || s.end_ns < s.start_ns) {
      continue;
    }
    const Span& p = spans_[s.parent - 1];
    const u64 lo = std::max(s.start_ns, p.start_ns);
    const u64 hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      child_ns[s.parent - 1] += hi - lo;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) {
      continue;  // never ended
    }
    const u64 dur = s.end_ns - s.start_ns;
    SpanTotals& t = out[names_[s.name]];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, child_ns[s.id - 1]);
  }
  return out;
}

std::vector<u32> SpanRecorder::Durations(const std::string& name) const {
  std::vector<u32> out;
  for (const Span& s : spans_) {
    if (names_[s.name] == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<u32>(std::min<u64>(s.end_ns - s.start_ns,
                                                   0xffffffffu)));
    }
  }
  return out;
}

bool SpanRecorder::WriteCsv(const std::string& path,
                            const std::vector<std::string>& header) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const std::string& line : header) {
    std::fprintf(f, "# %s\n", line.c_str());
  }
  std::fprintf(f, "id,parent,name,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%u,%s,%llu,%llu\n", s.id, s.parent,
                 names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

bool Expect(bool ok, const char* what, std::string* error) {
  if (!ok && error->empty()) {
    *error = what;
  }
  return ok;
}

}  // namespace

bool RunMathChecks(std::string* error) {
  error->clear();
  bool ok = true;

  // Nearest rank over 1..100: p50 is the 50th value, p99 the 99th.
  std::vector<u32> hundred;
  for (u32 i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  ok &= Expect(Percentile(hundred, 50.0) == 50.0, "p50 of 1..100", error);
  ok &= Expect(Percentile(hundred, 99.0) == 99.0, "p99 of 1..100", error);
  ok &= Expect(Percentile(hundred, 100.0) == 100.0, "p100 of 1..100", error);
  ok &= Expect(Percentile(hundred, 0.5) == 1.0, "p0.5 of 1..100", error);
  // Three samples: p50 -> rank ceil(1.5) = 2, p99 -> rank 3.
  const std::vector<u32> three = {30, 10, 20};
  ok &= Expect(Percentile(three, 50.0) == 20.0, "p50 of 3 samples", error);
  ok &= Expect(Percentile(three, 99.0) == 30.0, "p99 of 3 samples", error);
  ok &= Expect(Percentile(std::vector<u32>{}, 50.0) == 0.0, "empty", error);

  ok &= Expect(Median({5.0, 1.0, 3.0}) == 3.0, "odd median", error);
  ok &= Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median", error);
  ok &= Expect(Median({7.0}) == 7.0, "single median", error);

  // Self time: root [0,100) with children [10,30) and [40,90); the second
  // child has a grandchild [50,60) and the root a child that overhangs its
  // end, [95,120), clipped to 5.
  SpanRecorder rec(8);
  const u16 root = rec.Intern("root");
  const u16 child = rec.Intern("child");
  const u16 leaf = rec.Intern("leaf");
  const u32 r = rec.Add(root, 0, 1000, 1100);
  rec.Add(child, r, 1010, 1030);
  const u32 c2 = rec.Add(child, r, 1040, 1090);
  rec.Add(leaf, c2, 1050, 1060);
  rec.Add(child, r, 1095, 1120);
  const auto totals = rec.Totals();
  ok &= Expect(totals.at("root").total_ns == 100, "root total", error);
  ok &= Expect(totals.at("root").self_ns == 100 - 20 - 50 - 5, "root self",
               error);
  ok &= Expect(totals.at("child").count == 3, "child count", error);
  ok &= Expect(totals.at("child").total_ns == 20 + 50 + 25, "child total",
               error);
  ok &= Expect(totals.at("child").self_ns == 20 + 40 + 25, "child self",
               error);
  ok &= Expect(totals.at("leaf").self_ns == 10, "leaf self", error);
  const std::vector<u32> child_durations = rec.Durations("child");
  ok &= Expect(child_durations.size() == 3 && Percentile(child_durations, 50.0) == 25.0,
               "child durations", error);

  // Capacity: spans past capacity are dropped, not stored.
  SpanRecorder tiny(1);
  const u16 n = tiny.Intern("x");
  tiny.End(tiny.Begin(n, 0));
  ok &= Expect(tiny.Begin(n, 0) == 0 && tiny.dropped() == 1 && tiny.size() == 1,
               "span capacity", error);
  return ok;
}

}  // namespace rb
