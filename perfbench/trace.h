#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced runs. Spans are recorded by the
// benchmark around its own calls into the library's public functions: name,
// start, end, parent span and one request id per query. They stay in memory
// and are written out once, when the run ends. With tracing off every call
// costs one branch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh span id, so a parent can be recorded after its children.
  /// 0 when tracing is off.
  std::uint32_t NewId() { return enabled_ ? next_id_.fetch_add(1) : 0; }

  /// Records one finished span under a preallocated id (no-op when off).
  void Record(std::uint32_t id, const char* name, std::uint64_t request,
              std::uint32_t parent, Clock::time_point start,
              Clock::time_point end);

  /// Durations, in ms, of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Durations of the spans called `name` whose parent is a span with id in
  /// `parents` (ascending), in ms.
  std::vector<double> ChildDurationsMs(
      const std::string& name, const std::vector<std::uint32_t>& parents) const;
  /// The spans called `name` whose durations lie between their 40th and
  /// 60th percentiles — the requests around the median, over which a layer
  /// sum is taken: their ids (ascending) and mean duration in ms.
  struct Band {
    std::vector<std::uint32_t> ids;
    double mean_ms = 0.0;
  };
  Band MedianBand(const std::string& name) const;

  std::size_t size() const;

  /// Writes every span as one JSON object per line, times in ns from the
  /// first span's start. Returns false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::uint32_t id, parent;
    Clock::time_point start, end;
  };

  const bool enabled_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a span covering its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request,
             std::uint32_t parent = 0)
      : tracer_(tracer),
        name_(name),
        request_(request),
        parent_(parent),
        id_(tracer.NewId()),
        start_(id_ != 0 ? Tracer::Clock::now() : Tracer::Clock::time_point{}) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      tracer_.Record(id_, name_, request_, parent_, start_,
                     Tracer::Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t request_;
  std::uint32_t parent_;
  std::uint32_t id_;
  Tracer::Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
