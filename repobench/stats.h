// Exact order statistics over the benchmark's own samples, and the in-memory
// span recorder of the traced run. No histogram and no best-of-N anywhere:
// every reported percentile is an element of the sorted sample vector.
#ifndef REPOBENCH_STATS_H_
#define REPOBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace rb {

// Nearest-rank percentile of an ascending vector: the smallest sample with
// at least p% of the samples at or below it (p in (0, 100]). 0 when empty.
template <typename T>
double PercentileSorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return static_cast<double>(sorted[idx]);
}

template <typename T>
double Percentile(std::vector<T> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, p);
}

// Median of reps: the middle element, or the mean of the two middle ones.
double Median(std::vector<double> values);

// One traced interval. Ids start at 1; parent 0 marks a root span.
struct Span {
  u32 id = 0;
  u32 parent = 0;
  u16 name = 0;
  u64 start_ns = 0;
  u64 end_ns = 0;
};

struct SpanTotals {
  u64 count = 0;
  u64 total_ns = 0;
  u64 self_ns = 0;  // total minus the time covered by direct children
};

// Single-threaded, fixed-capacity span store. Begin() past capacity returns
// 0 and the span is not kept (End(0) is a no-op), so a long traced phase
// degrades to fewer spans rather than to allocation on the hot path.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) { spans_.reserve(capacity); }

  u16 Intern(const std::string& name);
  const std::string& NameOf(u16 id) const { return names_[id]; }

  u32 Begin(u16 name, u32 parent) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{static_cast<u32>(spans_.size() + 1), parent, name,
                          NowNs(), 0});
    return spans_.back().id;
  }
  void End(u32 id) {
    if (id != 0) {
      spans_[id - 1].end_ns = NowNs();
    }
  }
  // Records an already measured interval (used for intervals timed on
  // another thread and merged afterwards).
  u32 Add(u16 name, u32 parent, u64 start_ns, u64 end_ns);

  // Per-name totals with self time = duration minus the direct children's
  // durations (each child clipped to its parent's interval).
  std::map<std::string, SpanTotals> Totals() const;
  // Durations (ns) of every span with this name, unsorted.
  std::vector<u32> Durations(const std::string& name) const;

  // Writes "id,parent,name,start_ns,end_ns" lines after `header` lines.
  bool WriteCsv(const std::string& path,
                const std::vector<std::string>& header) const;

  std::size_t size() const { return spans_.size(); }
  // Whether less than `share` of the capacity is used.
  bool HasRoom(double share) const {
    return static_cast<double>(spans_.size()) <
           share * static_cast<double>(spans_.capacity());
  }
  u64 dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  u64 dropped_ = 0;
};

// Checks of the percentile, median and self-time arithmetic on inputs with
// known answers. Runs at the start of every benchmark run; false (with a
// reason in *error) makes the run fail.
bool RunMathChecks(std::string* error);

}  // namespace rb

#endif  // REPOBENCH_STATS_H_
