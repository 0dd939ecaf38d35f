#include "src/fleet/park.h"

#include <cstring>

namespace flashsim {

namespace {

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

bool GetVarint(const uint8_t* in, size_t size, size_t* pos, uint64_t* v) {
  *v = 0;
  for (uint32_t shift = 0; shift < 64; shift += 7) {
    if (*pos >= size) {
      return false;
    }
    const uint8_t byte = in[(*pos)++];
    *v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return true;
    }
  }
  return false;
}

// Zero runs shorter than this cost more to encode (two varints) than to
// carry literally.
constexpr size_t kMinZeroRun = 4;

constexpr uint64_t kLow01 = 0x0101010101010101ULL;
constexpr uint64_t kHigh80 = 0x8080808080808080ULL;

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// First index >= pos holding a zero byte, or size. Steps a word at a time
// using the SWAR has-zero-byte test; the byte scan only runs on the word
// that actually contains a zero.
size_t FindNextZero(const uint8_t* p, size_t size, size_t pos) {
  while (pos + 8 <= size) {
    const uint64_t w = LoadWord(p + pos);
    if (((w - kLow01) & ~w & kHigh80) != 0) {
      break;
    }
    pos += 8;
  }
  while (pos < size && p[pos] != 0) {
    ++pos;
  }
  return pos;
}

// End of the zero run starting at pos (whole zero words are skipped eight
// bytes at a time).
size_t SkipZeros(const uint8_t* p, size_t size, size_t pos) {
  while (pos + 8 <= size && LoadWord(p + pos) == 0) {
    pos += 8;
  }
  while (pos < size && p[pos] == 0) {
    ++pos;
  }
  return pos;
}

// Appends the zero-run stream for raw[0, size) to `out` (no clear) —
// identical bytes to the PR6 byte-at-a-time packer.
void PackZeroRunsAppend(const uint8_t* raw, size_t size,
                        std::vector<uint8_t>* out) {
  PutVarint(out, size);
  size_t pos = 0;
  while (pos < size) {
    // Literal run: up to the next zero run worth encoding.
    size_t lit_end = pos;
    size_t zero_end = pos;
    for (;;) {
      lit_end = FindNextZero(raw, size, lit_end);
      if (lit_end == size) {
        zero_end = size;
        break;
      }
      zero_end = SkipZeros(raw, size, lit_end);
      if (zero_end - lit_end >= kMinZeroRun) {
        break;
      }
      lit_end = zero_end;
    }
    PutVarint(out, lit_end - pos);
    out->insert(out->end(), raw + pos, raw + lit_end);
    pos = lit_end;
    if (pos == size) {
      break;  // no trailing zero run after a final literal
    }
    PutVarint(out, zero_end - pos);
    pos = zero_end;
  }
}

}  // namespace

void PackZeroRunsInto(const uint8_t* raw, size_t size,
                      std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(size / 3 + 16);
  PackZeroRunsAppend(raw, size, out);
}

// Decodes a zero-run stream occupying exactly packed[0, size). All bounds
// checks are in subtraction form: the run lengths are attacker-controlled
// varints, so `pos + lit` style additions could wrap uint64 and pass.
Status UnpackZeroRunsInto(const uint8_t* packed, size_t size,
                          std::vector<uint8_t>* out, size_t max_raw_size) {
  size_t pos = 0;
  uint64_t raw_size = 0;
  if (!GetVarint(packed, size, &pos, &raw_size)) {
    return DataLossError("parked blob: truncated size header");
  }
  if (raw_size > max_raw_size) {
    return DataLossError("parked blob: implausible raw size");
  }
  out->clear();
  out->reserve(raw_size);
  while (out->size() < raw_size) {
    uint64_t lit = 0;
    if (!GetVarint(packed, size, &pos, &lit) || lit > size - pos ||
        lit > raw_size - out->size()) {
      return DataLossError("parked blob: bad literal run");
    }
    out->insert(out->end(), packed + pos, packed + pos + lit);
    pos += lit;
    if (out->size() == raw_size) {
      break;
    }
    uint64_t zeros = 0;
    if (!GetVarint(packed, size, &pos, &zeros) ||
        zeros > raw_size - out->size()) {
      return DataLossError("parked blob: bad zero run");
    }
    out->resize(out->size() + zeros, 0);
  }
  if (out->size() != raw_size || pos != size) {
    return DataLossError("parked blob: size mismatch");
  }
  return Status::Ok();
}

std::vector<uint8_t> PackZeroRuns(const std::vector<uint8_t>& raw) {
  std::vector<uint8_t> out;
  PackZeroRunsInto(raw.data(), raw.size(), &out);
  return out;
}

Status UnpackZeroRuns(const std::vector<uint8_t>& packed,
                      std::vector<uint8_t>* out) {
  return UnpackZeroRunsInto(packed.data(), packed.size(), out);
}

void ParkPackFull(const std::vector<uint8_t>& raw, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(raw.size() / 3 + 16);
  out->push_back(kParkFull);
  PackZeroRunsAppend(raw.data(), raw.size(), out);
}

Status ParkUnpackFull(const std::vector<uint8_t>& blob,
                      std::vector<uint8_t>* raw) {
  if (blob.empty()) {
    return DataLossError("park blob: empty");
  }
  if (blob[0] != kParkFull) {
    return DataLossError("park blob: bad format tag");
  }
  return UnpackZeroRunsInto(blob.data() + 1, blob.size() - 1, raw);
}

}  // namespace flashsim
