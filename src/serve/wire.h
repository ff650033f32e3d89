#ifndef CNED_SERVE_WIRE_H_
#define CNED_SERVE_WIRE_H_

#include "search/sweep_kernel.h"
#include "serve/frame.h"

namespace cned {

/// Payload encoding of a shard's survivor-stream head (serve/replica.h):
/// the head's id (kSweepNone past the last survivor) and its bound. It ends
/// the kBeginRow reply, behind the shard's base tombstone count, and the
/// kEval reply, behind the distance, where it names the evaluated
/// candidate's successor. A head's `live` is not sent.
inline void EncodeStreamHead(PayloadWriter& w, const SweepCompactResult& head) {
  w.U64(head.next);
  w.F64(head.next_key);
}

inline SweepCompactResult DecodeStreamHead(PayloadReader& r) {
  SweepCompactResult out;
  out.next = r.U64();
  out.next_key = r.F64();
  return out;
}

}  // namespace cned

#endif  // CNED_SERVE_WIRE_H_
