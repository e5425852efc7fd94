// Inter-node messages.
//
// ADR nodes exchange three kinds of chunk-granular messages during query
// execution (paper sections 2.4 and 3): replicated accumulator chunks in
// the initialization phase, forwarded input chunks in the local reduction
// phase (DA strategy), and ghost accumulator chunks in the global combine
// phase (FRA/SRA).  `bytes` is the wire size used for network modelling;
// `payload` carries real data on the thread executor.
#pragma once

#include <cstdint>

#include "storage/chunk.hpp"

namespace adr {

enum class MsgTag : std::uint8_t {
  kGhostInit = 0,     // initialization: owner -> ghost holders
  kInputForward = 1,  // local reduction: input chunk -> accumulator owner (DA)
  kGhostCombine = 2,  // global combine: ghost holder -> owner (FRA/SRA)
  kUser = 16,         // first tag available to applications
};

struct Message {
  int src = -1;
  int dst = -1;
  MsgTag tag = MsgTag::kUser;
  /// Wire size in bytes (payload size + header); drives the network model.
  std::uint64_t bytes = 0;
  /// Which chunk this message is about.
  ChunkId chunk;
  /// Engine-defined extra word (chunk position within the query).
  std::uint32_t aux = 0;
  /// Tile the message belongs to (pipelined execution lets a sender run
  /// one tile ahead of a receiver; the receiver defers such messages).
  std::uint32_t tile = 0;
  /// Real data, when running with payloads: the chunk's own immutable
  /// buffer, so forwarding a chunk or fanning it out copies no bytes.
  Chunk::Payload payload;
};

/// Fixed per-message header overhead added to payload size on the wire.
inline constexpr std::uint64_t kMessageHeaderBytes = 64;

}  // namespace adr
