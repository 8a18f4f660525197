// Tensor-slice wire format for the simulated cluster (DESIGN.md Section 15).
//
// A coordinator-worker run moves activation tensors (full broadcasts) and
// output-channel slices (worker results) over simulated links. Both travel
// as one message format: a fixed little-endian header describing the full
// tensor shape, dtype, quantization parameters and the channel range the
// payload carries, followed by the NCHW-gathered bytes of channels
// [c_begin, c_end) for every batch row. The layout is explicit byte writes —
// never a struct memcpy — so the golden byte-layout test in
// tests/net_wire_test.cc pins it on every platform and the format cannot
// drift silently.
//
// Messages larger than a link's MTU are split into sequence-numbered
// fragments; reassembly accepts any fragment order and rejects gaps,
// duplicates and mixed sequences with typed kParse errors.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fnv1a.h"
#include "tensor/tensor.h"

namespace ulayer::net {

// Fixed header size in bytes. Layout (all little-endian):
//   offset  0  u32  magic (kWireMagic)
//   offset  4  u16  version (kWireVersion)
//   offset  6  u8   dtype (DType numeric value)
//   offset  7  u8   reserved (0)
//   offset  8  i32  node id the tensor belongs to
//   offset 12  i32  n   -- full tensor shape, not the slice's
//   offset 16  i32  c
//   offset 20  i32  h
//   offset 24  i32  w
//   offset 28  i64  c_begin  -- channel slice carried by the payload
//   offset 36  i64  c_end
//   offset 44  u32  scale (IEEE-754 float bits)
//   offset 48  i32  zero_point
//   offset 52  u64  payload_bytes
//   offset 60  payload
inline constexpr int64_t kWireHeaderBytes = 60;
inline constexpr uint32_t kWireMagic = 0x754C5731u;  // "1WLu" on the wire.
inline constexpr uint16_t kWireVersion = 1;

// A decoded tensor-slice message.
struct WireSlice {
  int node = -1;
  Shape shape;  // Full tensor shape.
  DType dtype = DType::kF32;
  int64_t c_begin = 0;
  int64_t c_end = 0;
  float scale = 1.0f;
  int32_t zero_point = 0;
  std::vector<uint8_t> payload;  // Channels [c_begin, c_end), every batch row.
};

// Payload bytes of a [c_begin, c_end) slice of a `shape`/`dtype` tensor.
int64_t WireSlicePayloadBytes(const Shape& shape, DType dtype, int64_t c_begin, int64_t c_end);
// Total message bytes (header + payload). The link simulator prices both
// timing-only and functional runs with this, so their message byte counts —
// hence fault-injector draw sequences — are identical by construction.
int64_t WireSliceBytes(const Shape& shape, DType dtype, int64_t c_begin, int64_t c_end);

// Serializes channels [c_begin, c_end) of `t` (tagged as node `node`).
// Throws ulayer::Error (kInvalidArgument) on an empty or out-of-range slice.
std::vector<uint8_t> EncodeTensorSlice(const Tensor& t, int node, int64_t c_begin, int64_t c_end);

// Parses one message. Throws ulayer::Error (kParse) on truncation, bad
// magic/version/dtype, an invalid shape or channel range, or a payload size
// that disagrees with the header.
WireSlice DecodeTensorSlice(const uint8_t* data, size_t size);
inline WireSlice DecodeTensorSlice(const std::vector<uint8_t>& bytes) {
  return DecodeTensorSlice(bytes.data(), bytes.size());
}

// Writes the slice's channels back into `dst` (which must match the slice's
// full shape and dtype; throws kInvalidArgument otherwise). A full-range
// slice restores the whole tensor.
void ScatterSlice(const WireSlice& slice, Tensor& dst);

// --- MTU fragmentation -------------------------------------------------------

struct Fragment {
  uint64_t seq = 0;    // Message sequence number; all fragments share it.
  uint32_t index = 0;  // 0-based fragment position.
  uint32_t count = 0;  // Total fragments of the message.
  std::vector<uint8_t> bytes;
};

// ceil(bytes / mtu), the number of packets a message occupies on a link.
int64_t FragmentCount(int64_t bytes, int64_t mtu);

// Splits `bytes` into <= mtu-sized fragments. mtu must be positive.
std::vector<Fragment> FragmentMessage(uint64_t seq, const std::vector<uint8_t>& bytes,
                                      int64_t mtu);

// Restores the original message from fragments in any order. Throws
// ulayer::Error (kParse) on an empty set, mixed sequence numbers,
// inconsistent counts, duplicate or missing indices.
std::vector<uint8_t> ReassembleMessage(const std::vector<Fragment>& fragments);

// FNV-1a 64-bit digest (common/fnv1a.h), the net layer's output-identity
// fingerprint.
using ulayer::Fnv1a64;

}  // namespace ulayer::net
