#ifndef CNED_SEARCH_SHARDED_LAESA_H_
#define CNED_SEARCH_SHARDED_LAESA_H_

#include "search/laesa.h"

namespace cned {

// The sharded index is `Laesa` over a ShardedPrototypeStore. This name
// survives only for the benchmark harness (perfbench/), which still spells
// it; the next change to the benchmark retires it.
using ShardedLaesa = Laesa;

}  // namespace cned

#endif  // CNED_SEARCH_SHARDED_LAESA_H_
