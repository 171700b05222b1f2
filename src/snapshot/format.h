// The snapshot container format (DESIGN.md §9).
//
// A snapshot is one file: a fixed 64-byte header, a section table, a name
// blob, then aligned section payloads. All integers are little-endian
// fixed-width. A *plain* payload is a raw little-endian element array, so a
// reader hands out `table::column<T>` spans pointing straight into an mmap
// of the file; a v2 payload may instead be *encoded* (dictionary, RLE or
// frame-of-reference delta — see src/table/encoding.h), in which case the
// reader validates it on open and decodes it once, on load, into an owning
// `table::column<T>`. Every section carries an XXH64 checksum over its
// payload, and the header carries one over the whole file (checksum field
// excluded), so a flipped byte anywhere — header, table, names, payload or
// padding — fails verification with a typed error instead of undefined
// behaviour.
//
//   [0,  8)  magic "ACXSNAP1"
//   [8, 12)  u32 format version (readers reject newer versions; v1 files
//            remain readable — all-plain sections, 64-byte alignment)
//   [12,16)  u32 section count (zero-section files are rejected)
//   [16,24)  u64 section table offset (= 64)
//   [24,32)  u64 name blob offset
//   [32,40)  u64 name blob length in bytes
//   [40,48)  u64 first payload offset (aligned)
//   [48,56)  u64 total file length in bytes
//   [56,64)  u64 XXH64 over [0,56) ++ [64, file length)
//
// Section table entry (40 bytes each, packed little-endian):
//   u32 name offset (into the name blob), u32 name length,
//   u8  element type tag,
//   u8  encoding tag (v2; must be zero in v1 files),
//   u16 reserved, zero in both versions (it once held a cross-reference
//       source index; a nonzero value is malformed in v1, bad_encoding in v2),
//   u32 element size in bytes,
//   u64 payload offset (aligned), u64 payload length in bytes,
//   u64 XXH64 over the payload
//
// Payload alignment is 64 bytes in v1 and 8 bytes in v2 (encoded payloads
// are small; 64-byte padding between them would cost ~1% of the file).
// The writer gives every section its own payload range; the reader checks
// each range against the file bounds and its own checksum only.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ac::snapshot {

// The container writes column payloads as raw little-endian element arrays;
// a big-endian host would need byte-swapping owned loads (and could never
// mmap). No such target exists for this codebase, so make the assumption a
// compile error rather than silent corruption.
static_assert(std::endian::native == std::endian::little,
              "snapshot container requires a little-endian host");

inline constexpr char magic[8] = {'A', 'C', 'X', 'S', 'N', 'A', 'P', '1'};
inline constexpr std::uint32_t format_version = 2;
inline constexpr std::size_t header_bytes = 64;
inline constexpr std::size_t section_entry_bytes = 40;
inline constexpr std::size_t payload_alignment = 64;     // v1 files
inline constexpr std::size_t payload_alignment_v2 = 8;   // v2 files

[[nodiscard]] constexpr std::size_t payload_alignment_for(std::uint32_t version) noexcept {
    return version >= 2 ? payload_alignment_v2 : payload_alignment;
}

/// Encoded sections decode into owned columns, and an encoding header's row
/// count is not bounded by its payload. The reader therefore caps the
/// decoded bytes of all encoded sections of one file, together, at this
/// multiple of the file size (errc::bad_encoding past it). Snapshots the
/// writer produces decode to about 2x their file size.
inline constexpr std::uint64_t max_decoded_bytes_per_file_byte = 64;

/// Element type of a section payload. Tags are part of the on-disk format;
/// never renumber.
enum class elem_type : std::uint8_t {
    raw = 0,  // opaque packed bytes (element size = record stride)
    u8 = 1,
    u32 = 2,
    u64 = 3,
    i32 = 4,
    i64 = 5,
    f64 = 6,
};

[[nodiscard]] constexpr std::uint32_t elem_size_of(elem_type t) noexcept {
    switch (t) {
        case elem_type::raw: return 1;
        case elem_type::u8: return 1;
        case elem_type::u32: return 4;
        case elem_type::u64: return 8;
        case elem_type::i32: return 4;
        case elem_type::i64: return 8;
        case elem_type::f64: return 8;
    }
    return 1;
}

/// Maps a C++ column element type to its on-disk tag.
template <typename T>
struct elem_tag;
template <> struct elem_tag<std::uint8_t> {
    static constexpr elem_type value = elem_type::u8;
};
template <> struct elem_tag<std::uint32_t> {
    static constexpr elem_type value = elem_type::u32;
};
template <> struct elem_tag<std::uint64_t> {
    static constexpr elem_type value = elem_type::u64;
};
template <> struct elem_tag<std::int32_t> {
    static constexpr elem_type value = elem_type::i32;
};
template <> struct elem_tag<std::int64_t> {
    static constexpr elem_type value = elem_type::i64;
};
template <> struct elem_tag<double> {
    static constexpr elem_type value = elem_type::f64;
};

/// What went wrong while opening or reading a snapshot. Every failure mode
/// the robustness tests exercise maps to exactly one code.
enum class errc : std::uint8_t {
    io,                 // file missing / unreadable / short read
    bad_magic,          // not a snapshot file
    version_mismatch,   // written by a future format version
    truncated,          // structurally cut short (header/table/payload bounds)
    checksum_mismatch,  // stored XXH64 does not match the bytes
    malformed,          // structurally invalid (zero sections, bad entry, ...)
    section_missing,    // a required section is absent
    type_mismatch,      // section exists but with a different element type
    bad_encoding,       // encoding tag/header/payload is invalid (v2)
};

[[nodiscard]] constexpr const char* errc_name(errc code) noexcept {
    switch (code) {
        case errc::io: return "io";
        case errc::bad_magic: return "bad_magic";
        case errc::version_mismatch: return "version_mismatch";
        case errc::truncated: return "truncated";
        case errc::checksum_mismatch: return "checksum_mismatch";
        case errc::malformed: return "malformed";
        case errc::section_missing: return "section_missing";
        case errc::type_mismatch: return "type_mismatch";
        case errc::bad_encoding: return "bad_encoding";
    }
    return "unknown";
}

/// The typed snapshot error: corrupt, truncated or mismatched inputs throw
/// this (never crash, never UB — the reader bounds-checks before it trusts
/// any offset).
class snapshot_error : public std::runtime_error {
public:
    snapshot_error(errc code, const std::string& message)
        : std::runtime_error(std::string{"snapshot ["} + errc_name(code) + "]: " + message),
          code_(code) {}

    [[nodiscard]] errc code() const noexcept { return code_; }

private:
    errc code_;
};

} // namespace ac::snapshot
