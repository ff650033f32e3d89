#ifndef CNED_SEARCH_COUNTING_DISTANCE_H_
#define CNED_SEARCH_COUNTING_DISTANCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "distances/distance.h"

namespace cned {

/// Decorator counting how many times the wrapped distance is evaluated.
///
/// The paper's §4.3 experiments report "average number of distance
/// computations" as the primary cost measure of LAESA. The indexes count
/// them themselves (`QueryStats::distance_computations`); this wrapper is
/// an independent tally for tests and tools that want to check a count
/// from outside an index. The length lower bounds are forwarded uncounted,
/// so an index built on the wrapper keeps its free zeroth pivot and runs
/// exactly the evaluations it runs on the bare distance.
class CountingDistance final : public StringDistance {
 public:
  explicit CountingDistance(StringDistancePtr inner)
      : inner_(std::move(inner)) {}

  double Distance(std::string_view x, std::string_view y) const override {
    ++count_;
    return inner_->Distance(x, y);
  }
  double DistanceBounded(std::string_view x, std::string_view y,
                         double bound) const override {
    ++count_;
    return inner_->DistanceBounded(x, y, bound);
  }
  /// The wrapped distance's evaluator, each `Bounded` call counted once,
  /// so an index that evaluates through it keeps its tally equal to
  /// `QueryStats::distance_computations`.
  std::unique_ptr<PreparedDistance> Prepare(
      std::string_view x) const override {
    return std::make_unique<Prepared>(inner_->Prepare(x), count_);
  }
  double LengthLowerBound(std::size_t x_len,
                          std::size_t y_len) const override {
    return inner_->LengthLowerBound(x_len, y_len);
  }
  void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                         std::size_t n, double* out) const override {
    inner_->LengthLowerBounds(x_len, y_lens, n, out);
  }
  std::string name() const override { return inner_->name(); }
  bool is_metric() const override { return inner_->is_metric(); }

  /// Evaluations since construction or the last Reset().
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset() { count_.store(0, std::memory_order_relaxed); }

 private:
  class Prepared final : public PreparedDistance {
   public:
    Prepared(std::unique_ptr<PreparedDistance> inner,
             std::atomic<std::uint64_t>& count)
        : inner_(std::move(inner)), count_(count) {}
    double Bounded(std::string_view y, double bound) override {
      ++count_;
      return inner_->Bounded(y, bound);
    }

   private:
    std::unique_ptr<PreparedDistance> inner_;
    std::atomic<std::uint64_t>& count_;
  };

  StringDistancePtr inner_;
  // Atomic because index builds evaluate distances from ParallelFor workers.
  mutable std::atomic<std::uint64_t> count_{0};
};

}  // namespace cned

#endif  // CNED_SEARCH_COUNTING_DISTANCE_H_
