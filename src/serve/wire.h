#ifndef CNED_SERVE_WIRE_H_
#define CNED_SERVE_WIRE_H_

#include <cstdint>

#include "search/sweep_kernel.h"
#include "serve/frame.h"

namespace cned {

/// Payload encoding of one shard's sweep pass result — the reply body of
/// kBeginLazy, kBeginRow and kStep. `live_pivots` (the shard's pivot slab)
/// rides along so the router always has each shard's absolute live-pivot
/// count (the quantity that keeps the global next-candidate rule exact when
/// shards drop out).
struct WireCompact {
  SweepCompactResult pass;
  std::uint64_t live_pivots = 0;
};

inline void EncodeCompact(PayloadWriter& w, const SweepCompactResult& pass,
                          std::uint64_t live_pivots) {
  w.U64(pass.live);
  w.U64(pass.pivots_died);
  w.U64(pass.next);
  w.F64(pass.next_key);
  w.U64(pass.next_pivot);
  w.F64(pass.next_pivot_key);
  w.U64(live_pivots);
}

inline WireCompact DecodeCompact(PayloadReader& r) {
  WireCompact out;
  out.pass.live = r.U64();
  out.pass.pivots_died = r.U64();
  out.pass.next = r.U64();
  out.pass.next_key = r.F64();
  out.pass.next_pivot = r.U64();
  out.pass.next_pivot_key = r.F64();
  out.live_pivots = r.U64();
  return out;
}

}  // namespace cned

#endif  // CNED_SERVE_WIRE_H_
