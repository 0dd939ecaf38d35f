// Parked-device blob packing (DESIGN.md §13/§14).
//
// Between slices, a fleet device exists only as its serialized FSNP snapshot
// (device + workload generator state). Measured worn-device snapshots are
// ~70-75% zero bytes — empty mapping-table tails, unwritten plane metadata —
// so a byte-exact zero-run codec shrinks parked state ~3-4x for a linear
// scan's cost, without eliding any section (eliding would break the
// bit-exact park/unpark contract).
//
// Two layers live here:
//
//  * The raw zero-run codec (PackZeroRuns/UnpackZeroRuns): u64 raw size,
//    then alternating LEB128-length runs starting with a literal run:
//    (literal_len, literal bytes, zero_len)*. Unpack validates the recorded
//    size, so truncated or corrupt blobs fail loudly. The scanner walks the
//    input a uint64 word at a time.
//
//  * Park blobs (DESIGN.md §14): the one-byte format tag kParkFull in front
//    of a zero-run stream of the plain snapshot. This is the only park
//    format and also the checkpoint form; any other tag is data loss.

#ifndef SRC_FLEET_PARK_H_
#define SRC_FLEET_PARK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/simcore/status.h"

namespace flashsim {

// Largest raw image a park blob may claim to decode to. A corrupt size
// header would otherwise drive a near-2^64 allocation before any data
// validation could reject the blob; real parked snapshots are a few MiB.
inline constexpr size_t kParkMaxRawBytes = size_t{1} << 30;

// Raw zero-run codec. The Into variants reuse `out`'s capacity (steady-state
// allocation-free); the value-returning forms are convenience wrappers.
// `max_raw_size` bounds the decoded size a blob may claim (see above).
void PackZeroRunsInto(const uint8_t* raw, size_t size,
                      std::vector<uint8_t>* out);
Status UnpackZeroRunsInto(const uint8_t* packed, size_t size,
                          std::vector<uint8_t>* out,
                          size_t max_raw_size = kParkMaxRawBytes);
std::vector<uint8_t> PackZeroRuns(const std::vector<uint8_t>& raw);
Status UnpackZeroRuns(const std::vector<uint8_t>& packed,
                      std::vector<uint8_t>* out);

// Park blob format tag (first byte of every park blob). Tags 0x02 and 0x03
// are retired (former transposed/delta formats): never reuse them.
inline constexpr uint8_t kParkFull = 0x01;  // zero-run(raw)

// Packs `raw` as a self-contained kParkFull blob into `out` (reusing its
// capacity).
void ParkPackFull(const std::vector<uint8_t>& raw, std::vector<uint8_t>* out);

// Unpacks a kParkFull blob into `raw`; any other tag is a DataLossError.
Status ParkUnpackFull(const std::vector<uint8_t>& blob,
                      std::vector<uint8_t>* raw);

}  // namespace flashsim

#endif  // SRC_FLEET_PARK_H_
