#include "perfbench/bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

bool Params::Set(const std::string& kv) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string::npos) return false;
  values_[kv.substr(0, eq)] = kv.substr(eq + 1);
  return true;
}

const std::string& Params::Str(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::invalid_argument("missing workload parameter: " + name);
  }
  return it->second;
}

double Params::Num(const std::string& name) const {
  return std::stod(Str(name));
}

std::size_t Params::Size(const std::string& name) const {
  const double v = Num(name);
  if (v < 0 || v != std::floor(v)) {
    throw std::invalid_argument("parameter " + name +
                                " must be a whole number");
  }
  return static_cast<std::size_t>(v);
}

std::vector<double> Params::List(const std::string& name) const {
  std::vector<double> out;
  std::stringstream in(Str(name));
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stod(item));
  return out;
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value, std::size_t samples) {
  metrics_.push_back(Metric{name, unit, value, samples});
}

void Report::Op(bool ok, bool wrong) {
  ++attempted_;
  if (!ok) ++failed_;
  if (wrong) ++wrong_;
}

void Report::Wrong(const std::string& what) {
  ++wrong_;
  std::cerr << "perfbench: INCORRECT: " << what << "\n";
}

void Report::Print(std::ostream& out) const {
  out << std::setprecision(17);
  for (const Metric& m : metrics_) {
    out << "metric\t" << m.name << '\t' << m.unit << '\t' << m.value << '\t'
        << m.samples << '\n';
  }
  out << "result\t" << (correct() ? 1 : 0) << '\t' << attempted_ << '\t'
      << failed_ << '\n';
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t rank = pos < 1.0 ? 1 : static_cast<std::size_t>(pos);
  return v[std::min(rank, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

bool SameNeighbors(const std::vector<cned::NeighborResult>& a,
                   const std::vector<cned::NeighborResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].distance != b[i].distance) {
      return false;
    }
  }
  return true;
}

bool PinToFirstCpu() {
  cpu_set_t have;
  CPU_ZERO(&have);
  if (sched_getaffinity(0, sizeof(have), &have) != 0) return false;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &have)) {
      cpu_set_t want;
      CPU_ZERO(&want);
      CPU_SET(c, &want);
      return sched_setaffinity(0, sizeof(want), &want) == 0;
    }
  }
  return false;
}

double PeakRssMb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::operator()(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

std::vector<double> PoissonArrivals(double rate_qps, double seconds,
                                    std::mt19937_64& rng) {
  const auto n = static_cast<std::size_t>(std::llround(rate_qps * seconds));
  std::vector<double> out(n);
  std::uniform_real_distribution<double> at(0.0, seconds);
  for (double& t : out) t = at(rng);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
