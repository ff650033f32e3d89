#ifndef CNED_DISTANCES_DISTANCE_H_
#define CNED_DISTANCES_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace cned {

/// A distance with its first argument bound: `StringDistance::Prepare(x)`.
///
/// A search that evaluates one query against many candidates prepares the
/// query once and calls `Bounded` per candidate, so per-query work (a
/// match table, a cap per candidate length) is not redone on every call.
class PreparedDistance {
 public:
  virtual ~PreparedDistance() = default;

  /// `DistanceBounded(x, y, bound)` of the distance that prepared x, bit
  /// for bit, x always the first argument.
  virtual double Bounded(std::string_view y, double bound) = 0;
};

/// Abstract string distance (or dissimilarity) function.
///
/// Every distance in the paper — the Levenshtein distance, the naive
/// normalisations, Marzal-Vidal, Yujian-Bo and the contextual distance —
/// implements this interface so the search structures, histogram tools and
/// experiment harnesses are generic over the distance used.
///
/// Implementations must be deterministic and symmetric in value (even the
/// ones that are not metrics satisfy d(x,y) == d(y,x)); `is_metric()`
/// reports whether the triangle inequality is guaranteed, which LAESA/AESA
/// require for exactness.
class StringDistance {
 public:
  virtual ~StringDistance() = default;

  /// The distance between `x` and `y`.
  virtual double Distance(std::string_view x, std::string_view y) const = 0;

  /// Bounded evaluation: exactly `Distance(x, y)` whenever that value is
  /// `< bound`; otherwise any value `>= bound` (the kernel may abandon the
  /// computation as soon as the result provably reaches the bound).
  ///
  /// Metric indexes pass their incumbent best (or search radius) here so
  /// hopeless distance computations are cut short — the dominant saving for
  /// the cubic contextual kernel. Callers detect an abandoned evaluation by
  /// `result >= bound`; an abandoned value carries no other information (it
  /// is NOT a lower bound on the true distance beyond `bound` itself).
  ///
  /// The default forwards to `Distance` (always exact, never abandons);
  /// kernels with a cheaper banded/early-exit form override it.
  virtual double DistanceBounded(std::string_view x, std::string_view y,
                                 double bound) const {
    (void)bound;
    return Distance(x, y);
  }

  /// Binds `x` as the first argument of every later evaluation: the
  /// returned evaluator's `Bounded(y, bound)` is `DistanceBounded(x, y,
  /// bound)` bit for bit. The order is kept: a prepared x is never
  /// evaluated as the second argument, because a distance need not be
  /// symmetric in its last bit (dC and dC,h add their harmonic ranges in
  /// argument order). `x` must outlive the evaluator, and this distance
  /// too. The evaluator may hold scratch sized on its first calls, so its
  /// steady-state calls allocate nothing, and it is not for concurrent
  /// use: one thread at a time, as a search's per-query state is. The
  /// default forwards every call to `DistanceBounded`; the contextual
  /// distances override it.
  virtual std::unique_ptr<PreparedDistance> Prepare(std::string_view x) const;

  /// A lower bound on `Distance(x, y)` computable from the string lengths
  /// alone; 0.0 when no such bound is known (the safe default). For the
  /// Levenshtein family |len(x) - len(y)| <= d_E gives closed forms that
  /// cost a handful of arithmetic ops — search structures use them to
  /// reject candidates before any DP runs, and `DistanceBounded` fast paths
  /// use them to return immediately when the bound is already reached.
  virtual double LengthLowerBound(std::size_t x_len, std::size_t y_len) const {
    (void)x_len;
    (void)y_len;
    return 0.0;
  }

  /// Batched form over a packed length array (the `PrototypeStore` layout):
  /// out[i] = LengthLowerBound(x_len, y_lens[i]). The default loops over
  /// the scalar hook; kernels with a closed-form bound override it with a
  /// flat, branch-light loop the compiler can vectorise — this is the
  /// "free zeroth pivot" of the LAESA elimination sweep.
  virtual void LengthLowerBounds(std::size_t x_len, const std::uint32_t* y_lens,
                                 std::size_t n, double* out) const {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = LengthLowerBound(x_len, y_lens[i]);
    }
  }

  /// Short identifier as used in the paper, e.g. "dE", "dC,h", "dYB".
  virtual std::string name() const = 0;

  /// True when the distance provably satisfies the metric axioms.
  virtual bool is_metric() const = 0;
};

using StringDistancePtr = std::shared_ptr<const StringDistance>;

/// The default evaluator: every call is `distance.DistanceBounded(x, y,
/// bound)`.
class ForwardingPreparedDistance final : public PreparedDistance {
 public:
  ForwardingPreparedDistance(const StringDistance& distance,
                             std::string_view x)
      : distance_(distance), x_(x) {}
  double Bounded(std::string_view y, double bound) override {
    return distance_.DistanceBounded(x_, y, bound);
  }

 private:
  const StringDistance& distance_;
  std::string_view x_;
};

inline std::unique_ptr<PreparedDistance> StringDistance::Prepare(
    std::string_view x) const {
  return std::make_unique<ForwardingPreparedDistance>(*this, x);
}

/// Shared body for `LengthLowerBounds` overrides: applies the scalar bound
/// `f(x_len, y_len)` across a packed length array. Statically dispatched,
/// so the inner loop stays a flat, vectorizable pass.
template <typename F>
inline void FillLengthLowerBounds(F&& f, std::size_t x_len,
                                  const std::uint32_t* y_lens, std::size_t n,
                                  double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = f(x_len, y_lens[i]);
}

}  // namespace cned

#endif  // CNED_DISTANCES_DISTANCE_H_
