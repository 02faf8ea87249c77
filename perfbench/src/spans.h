#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One timed call into a layer, recorded by the benchmark around the call
/// (the program itself is not instrumented).
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
  uint64_t job = 0;     ///< spans of one job share this id
  uint64_t tid = 0;
};

/// Spans kept in memory for the whole run and written once at the end.
/// Disabled, Begin/End do nothing, so the untraced run pays one branch.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  int64_t Begin(const std::string& name, int64_t parent, uint64_t job) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.job = job;
    s.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
    std::lock_guard<std::mutex> lock(mu_);
    s.start_us = NowUs();
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size() - 1);
  }

  /// Closes span `id` (a no-op for the -1 a disabled recorder hands out).
  void End(int64_t id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = NowUs();
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time per span name: each span's duration minus what its direct
  /// children cover, summed over all spans of that name.
  struct SelfTime {
    double total_ms = 0;
    double self_ms = 0;
    uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const {
    std::vector<Span> all = spans();
    std::vector<double> child_us(all.size(), 0);
    for (const Span& s : all) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, SelfTime> out;
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      SelfTime& t = out[s.name];
      double dur = s.end_us - s.start_us;
      t.total_ms += dur / 1e3;
      t.self_ms += (dur - child_us[i]) / 1e3;
      ++t.count;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events), loadable as-is in
  /// ui.perfetto.dev or chrome://tracing. `stamp` (host and build) goes
  /// into the file's otherData.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& stamp) const {
    std::vector<Span> all = spans();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::string escaped;
    for (char c : stamp) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"stamp\":\"%s\"},"
                 "\"traceEvents\":[",
                 escaped.c_str());
    for (size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                   "\"args\":{\"id\":%zu,\"parent\":%lld,\"job\":%llu}}",
                   i == 0 ? "" : ",", s.name.c_str(),
                   s.name.substr(0, s.name.find('.')).c_str(), s.start_us,
                   s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.tid), i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.job));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction or Close().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, int64_t parent,
             uint64_t job)
      : rec_(rec), id_(rec.Begin(name, parent, job)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void Close() {
    rec_.End(id_);
    id_ = -1;
  }

 private:
  SpanRecorder& rec_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
