// What one benchmark run records: timed samples, output checks, counts, and
// benchmark-side trace spans. Everything stays in memory until the run ends
// and is then written as one JSON object on stdout for run.py to reduce.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

/// One span: a timed call into a layer's public function, made from the
/// benchmark. `parent` indexes the enclosing span (-1 for a root).
struct SpanRecord {
  std::string name;
  int parent = -1;
  double start_ms = 0.0;
  double dur_ms = 0.0;
};

/// In-memory span log. Disabled, it records nothing and costs one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; a null `name` opens none (for conditionally traced ops).
  int Begin(const char* name) {
    if (!enabled_ || name == nullptr) return -1;
    int parent = open_.empty() ? -1 : open_.back();
    records_.push_back({name, parent, NowMs(), 0.0});
    open_.push_back(static_cast<int>(records_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    SpanRecord& r = records_[static_cast<size_t>(id)];
    r.dur_ms = NowMs() - r.start_ms;
    open_.pop_back();
  }

  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> records_;
  std::vector<int> open_;
};

/// RAII span over one scope.
class Span {
 public:
  Span(SpanLog& log, const char* name) : log_(log), id_(log.Begin(name)) {}
  ~Span() { log_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Wall-clock milliseconds of one callable.
template <typename F>
double TimeMs(F&& f) {
  double start = NowMs();
  f();
  return NowMs() - start;
}

struct RunRecord {
  explicit RunRecord(bool traced) : spans(traced) {}

  std::vector<double> setup_s;
  std::vector<double> op_ms;
  std::vector<double> schema_ms;
  /// Traced runs only: ops timed with every span off, interleaved with the
  /// traced ones (the base of the tracing-overhead ratio).
  std::vector<double> untraced_op_ms;
  /// Input rows (or row operations) processed by the timed ops.
  double row_ops = 0.0;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> counts;
  /// Span names whose self times make up one op (the blocking path).
  std::vector<std::string> blocking;
  SpanLog spans;

  /// Counts one attempted op (or read); `ok` false marks it failed.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

/// Writes the record as a single-line JSON object.
void WriteJson(const RunRecord& run, const std::string& workload,
               unsigned long seed, double peak_rss_mb, std::FILE* out);

}  // namespace perfbench
