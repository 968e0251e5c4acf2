// Scoreboard checkpoint sidecars (fcma.ckpt.v1).
//
// The master periodically snapshots the scoreboard so a crashed run can be
// resumed with `fcma cluster --resume <ckpt>` instead of recomputing every
// voxel.  The format is a small JSON document (read back through
// common/json) holding the scored voxels as contiguous [first, count] runs
// with their accuracies; doubles are printed with %.17g so a write/load
// round trip is bit-exact — resuming must not perturb the bit-identity
// contract.
#pragma once

#include <string>

#include "fcma/scoreboard.hpp"

namespace fcma::cluster {

/// Writes `board`'s scored voxels to `path` durably: the tmp file is
/// fsynced, renamed over `path`, and the directory fsynced, so neither a
/// crash mid-write nor a host crash after it leaves a torn or empty
/// checkpoint.  Throws fcma::Error on any I/O failure.
void write_checkpoint(const std::string& path, const core::Scoreboard& board);

/// Loads a checkpoint into a fresh scoreboard.  Throws fcma::Error on I/O
/// failure, malformed JSON, a schema/version mismatch, or a total-voxel
/// count that disagrees with `expected_voxels` (pass 0 to accept the file's
/// own count).
[[nodiscard]] core::Scoreboard load_checkpoint(const std::string& path,
                                               std::size_t expected_voxels);

}  // namespace fcma::cluster
