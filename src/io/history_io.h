// Binary phase-history persistence: a simple versioned container for
// range-compressed pulse batches (samples + per-pulse metadata), so
// collections can be generated once and replayed across benchmark runs or
// shared between tools.
#pragma once

#include <string>

#include "sim/phase_history.h"

namespace sarbp::io {

/// Writes the full phase history (shape, dr, k, per-pulse metadata, AoS
/// samples) to `path`. Little-endian; throws on I/O failure.
void save_phase_history(const std::string& path,
                        const sim::PhaseHistory& history);

/// Reads a file written by save_phase_history.
sim::PhaseHistory load_phase_history(const std::string& path);

}  // namespace sarbp::io
