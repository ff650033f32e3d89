#ifndef CNED_SERVE_WIRE_H_
#define CNED_SERVE_WIRE_H_

#include "search/sweep_kernel.h"
#include "serve/frame.h"

namespace cned {

/// Payload encoding of one shard's sweep pass result — the reply body of
/// kStep, and of kBeginRow behind the shard's base tombstone count: the
/// shard's live count and its minimal-bound survivor.
inline void EncodeCompact(PayloadWriter& w, const SweepCompactResult& pass) {
  w.U64(pass.live);
  w.U64(pass.next);
  w.F64(pass.next_key);
}

inline SweepCompactResult DecodeCompact(PayloadReader& r) {
  SweepCompactResult out;
  out.live = r.U64();
  out.next = r.U64();
  out.next_key = r.F64();
  return out;
}

}  // namespace cned

#endif  // CNED_SERVE_WIRE_H_
