#ifndef CNED_SERVE_WORKER_H_
#define CNED_SERVE_WORKER_H_

#include <string>

namespace cned {

/// Configuration of one shard-worker process.
struct WorkerConfig {
  std::size_t shard_id = 0;
  /// Ordinal of this worker inside its shard's replica group (0 = the
  /// initial primary). Every member of a group maps the *same* snapshot
  /// files; the ordinal only names the process for fault selection
  /// (`replica=` in serve/fault.h) and for the ping identity echo.
  std::size_t replica_id = 0;
  std::string store_path;
  std::string index_path;
  std::string distance;    ///< registry name (distances/registry.h)
  std::string fault_spec;  ///< CNED_FAULT grammar (serve/fault.h); "" = clean
};

/// Runs the shard-worker protocol loop on `fd` (one end of the router's
/// socketpair) until the router sends kShutdown, the socket closes, or an
/// injected crash fires. Maps the shard snapshot (checksum-verified), then
/// serves Ping/BeginRow/Eval requests and the mutable tier's ops,
/// applying the fault spec's deterministic schedule to each. A request
/// type it does not serve, the reserved 2, 5 and 6 included, is answered
/// with kError. Returns the process exit code (0 on clean shutdown). Never
/// throws: a snapshot or protocol
/// failure is reported as a kError frame where possible and a nonzero
/// return otherwise.
int RunShardWorker(int fd, const WorkerConfig& config);

}  // namespace cned

#endif  // CNED_SERVE_WORKER_H_
