#include "perfbench/trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

void Tracer::Record(std::uint32_t id, const char* name, std::uint64_t request,
                    std::uint32_t parent, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, id, parent, start, end});
}

namespace {

double Ms(Tracer::Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(Ms(s.end - s.start));
  }
  return out;
}

std::vector<double> Tracer::ChildDurationsMs(
    const std::string& name, const std::vector<std::uint32_t>& parents) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name &&
        std::binary_search(parents.begin(), parents.end(), s.parent)) {
      out.push_back(Ms(s.end - s.start));
    }
  }
  return out;
}

Tracer::Band Tracer::MedianBand(const std::string& name) const {
  std::vector<std::pair<double, std::uint32_t>> by_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (name == s.name) by_ms.emplace_back(Ms(s.end - s.start), s.id);
    }
  }
  Band band;
  if (by_ms.empty()) return band;
  std::sort(by_ms.begin(), by_ms.end());
  const std::size_t lo = by_ms.size() * 2 / 5;
  const std::size_t hi = std::max(lo + 1, by_ms.size() * 3 / 5);
  for (std::size_t i = lo; i < hi; ++i) {
    band.ids.push_back(by_ms[i].second);
    band.mean_ms += by_ms[i].first;
  }
  band.mean_ms /= static_cast<double>(band.ids.size());
  std::sort(band.ids.begin(), band.ids.end());
  return band;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
