#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace ulayer::net {
namespace {

[[noreturn]] void WireFail(const std::string& why) {
  throw Error(ErrorCode::kParse, "wire: " + why);
}

// Explicit little-endian scalar writes/reads: the golden byte-layout test
// must hold on any host endianness.
void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xffu));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xffu));
  }
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xffu));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

bool ValidWireDType(uint8_t v) {
  switch (static_cast<DType>(v)) {
    case DType::kF32:
    case DType::kF16:
    case DType::kQUInt8:
    case DType::kInt32:
      return true;
  }
  return false;
}

}  // namespace

int64_t WireSlicePayloadBytes(const Shape& shape, DType dtype, int64_t c_begin, int64_t c_end) {
  return shape.n * (c_end - c_begin) * shape.h * shape.w * DTypeSize(dtype);
}

int64_t WireSliceBytes(const Shape& shape, DType dtype, int64_t c_begin, int64_t c_end) {
  return kWireHeaderBytes + WireSlicePayloadBytes(shape, dtype, c_begin, c_end);
}

std::vector<uint8_t> EncodeTensorSlice(const Tensor& t, int node, int64_t c_begin,
                                       int64_t c_end) {
  const Shape& s = t.shape();
  if (c_begin < 0 || c_end <= c_begin || c_end > s.c) {
    throw Error(ErrorCode::kInvalidArgument,
                "wire: channel slice [" + std::to_string(c_begin) + ", " +
                    std::to_string(c_end) + ") out of range for c=" + std::to_string(s.c));
  }
  const int64_t esize = DTypeSize(t.dtype());
  const int64_t payload_bytes = WireSlicePayloadBytes(s, t.dtype(), c_begin, c_end);
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(kWireHeaderBytes + payload_bytes));
  PutU32(out, kWireMagic);
  PutU16(out, kWireVersion);
  out.push_back(static_cast<uint8_t>(t.dtype()));
  out.push_back(0);  // reserved
  PutU32(out, static_cast<uint32_t>(node));
  PutU32(out, static_cast<uint32_t>(s.n));
  PutU32(out, static_cast<uint32_t>(s.c));
  PutU32(out, static_cast<uint32_t>(s.h));
  PutU32(out, static_cast<uint32_t>(s.w));
  PutU64(out, static_cast<uint64_t>(c_begin));
  PutU64(out, static_cast<uint64_t>(c_end));
  uint32_t scale_bits = 0;
  const float scale = t.scale();
  std::memcpy(&scale_bits, &scale, sizeof(scale_bits));
  PutU32(out, scale_bits);
  PutU32(out, static_cast<uint32_t>(t.zero_point()));
  PutU64(out, static_cast<uint64_t>(payload_bytes));
  // Channels [c_begin, c_end) are contiguous within one batch row of an NCHW
  // buffer, so the gather is one copy per row.
  const int64_t row_bytes = (c_end - c_begin) * s.h * s.w * esize;
  const uint8_t* raw = t.raw();
  for (int64_t ni = 0; ni < s.n; ++ni) {
    const int64_t src = s.Offset(ni, c_begin, 0, 0) * esize;
    out.insert(out.end(), raw + src, raw + src + row_bytes);
  }
  return out;
}

WireSlice DecodeTensorSlice(const uint8_t* data, size_t size) {
  if (data == nullptr || size < static_cast<size_t>(kWireHeaderBytes)) {
    WireFail("message shorter than the " + std::to_string(kWireHeaderBytes) + "-byte header");
  }
  if (GetU32(data) != kWireMagic) {
    WireFail("bad magic");
  }
  if (GetU16(data + 4) != kWireVersion) {
    WireFail("unsupported version " + std::to_string(GetU16(data + 4)));
  }
  if (!ValidWireDType(data[6])) {
    WireFail("unknown dtype value " + std::to_string(data[6]));
  }
  WireSlice slice;
  slice.dtype = static_cast<DType>(data[6]);
  slice.node = static_cast<int32_t>(GetU32(data + 8));
  slice.shape = Shape(static_cast<int32_t>(GetU32(data + 12)),
                      static_cast<int32_t>(GetU32(data + 16)),
                      static_cast<int32_t>(GetU32(data + 20)),
                      static_cast<int32_t>(GetU32(data + 24)));
  slice.c_begin = static_cast<int64_t>(GetU64(data + 28));
  slice.c_end = static_cast<int64_t>(GetU64(data + 36));
  const uint32_t scale_bits = GetU32(data + 44);
  std::memcpy(&slice.scale, &scale_bits, sizeof(slice.scale));
  slice.zero_point = static_cast<int32_t>(GetU32(data + 48));
  const uint64_t payload_bytes = GetU64(data + 52);
  if (!slice.shape.IsValid()) {
    WireFail("invalid shape " + slice.shape.ToString());
  }
  if (slice.c_begin < 0 || slice.c_end <= slice.c_begin || slice.c_end > slice.shape.c) {
    WireFail("channel slice [" + std::to_string(slice.c_begin) + ", " +
             std::to_string(slice.c_end) + ") out of range for " + slice.shape.ToString());
  }
  const int64_t expected =
      WireSlicePayloadBytes(slice.shape, slice.dtype, slice.c_begin, slice.c_end);
  if (payload_bytes != static_cast<uint64_t>(expected)) {
    WireFail("payload size " + std::to_string(payload_bytes) + " != expected " +
             std::to_string(expected));
  }
  if (size != static_cast<size_t>(kWireHeaderBytes) + payload_bytes) {
    WireFail("message size " + std::to_string(size) + " != header + payload");
  }
  slice.payload.assign(data + kWireHeaderBytes, data + size);
  return slice;
}

void ScatterSlice(const WireSlice& slice, Tensor& dst) {
  if (dst.shape() != slice.shape || dst.dtype() != slice.dtype) {
    throw Error(ErrorCode::kInvalidArgument,
                "wire: scatter target " + dst.shape().ToString() +
                    " does not match slice tensor " + slice.shape.ToString());
  }
  const Shape& s = slice.shape;
  const int64_t esize = DTypeSize(slice.dtype);
  const int64_t row_bytes = (slice.c_end - slice.c_begin) * s.h * s.w * esize;
  uint8_t* raw = dst.raw();
  for (int64_t ni = 0; ni < s.n; ++ni) {
    const int64_t off = s.Offset(ni, slice.c_begin, 0, 0) * esize;
    std::memcpy(raw + off, slice.payload.data() + ni * row_bytes,
                static_cast<size_t>(row_bytes));
  }
}

int64_t FragmentCount(int64_t bytes, int64_t mtu) {
  if (mtu <= 0 || bytes <= 0) {
    return bytes > 0 ? 1 : 0;
  }
  return (bytes + mtu - 1) / mtu;
}

std::vector<Fragment> FragmentMessage(uint64_t seq, const std::vector<uint8_t>& bytes,
                                      int64_t mtu) {
  if (mtu <= 0) {
    throw Error(ErrorCode::kInvalidArgument, "wire: mtu must be positive");
  }
  const int64_t total = static_cast<int64_t>(bytes.size());
  const int64_t count = FragmentCount(total, mtu);
  std::vector<Fragment> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Fragment f;
    f.seq = seq;
    f.index = static_cast<uint32_t>(i);
    f.count = static_cast<uint32_t>(count);
    const int64_t begin = i * mtu;
    const int64_t end = std::min<int64_t>(begin + mtu, total);
    f.bytes.assign(bytes.begin() + begin, bytes.begin() + end);
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<uint8_t> ReassembleMessage(const std::vector<Fragment>& fragments) {
  if (fragments.empty()) {
    WireFail("reassembly of an empty fragment set");
  }
  const uint64_t seq = fragments.front().seq;
  const uint32_t count = fragments.front().count;
  if (count == 0 || fragments.size() != count) {
    WireFail("fragment count " + std::to_string(fragments.size()) + " != declared " +
             std::to_string(count) + " (seq " + std::to_string(seq) + ")");
  }
  std::vector<const Fragment*> ordered(count, nullptr);
  for (const Fragment& f : fragments) {
    if (f.seq != seq) {
      WireFail("mixed sequence numbers " + std::to_string(seq) + " and " +
               std::to_string(f.seq));
    }
    if (f.count != count) {
      WireFail("inconsistent fragment counts within seq " + std::to_string(seq));
    }
    if (f.index >= count) {
      WireFail("fragment index " + std::to_string(f.index) + " out of range (seq " +
               std::to_string(seq) + ")");
    }
    if (ordered[f.index] != nullptr) {
      WireFail("duplicate fragment " + std::to_string(f.index) + " (seq " +
               std::to_string(seq) + ")");
    }
    ordered[f.index] = &f;
  }
  std::vector<uint8_t> out;
  for (const Fragment* f : ordered) {
    if (f == nullptr) {
      WireFail("missing fragment (seq " + std::to_string(seq) + ")");
    }
    out.insert(out.end(), f->bytes.begin(), f->bytes.end());
  }
  return out;
}

}  // namespace ulayer::net
