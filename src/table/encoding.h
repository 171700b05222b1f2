// Encoded column storage: dictionary, RLE and frame-of-reference delta
// encodings over typed columns (DESIGN.md §12).
//
// Encodings operate on the little-endian *bit patterns* of the element type
// (1, 4 or 8 bytes, zero-extended to u64), never on interpreted values, so
// every encoding is lossless and value-exact for integers and doubles alike.
// The writer encodes (`choose_and_encode`); the reader validates a payload
// into a view (`parse_view`) — a handful of pointers into externally owned
// bytes, typically an mmap'd snapshot section — and decodes it once, on
// load, with `view_core::decode` into plain values. Analysis kernels never
// see an encoded column.
//
// Payload layout (after the snapshot section entry says which encoding):
//
//   all encoded payloads start with a 16-byte header:
//     u32 row count, u8 bit width, u8 flags (0), u16 reserved (0), u64 aux
//
//   dict   aux = dictionary size D; width = code bit width
//     [16,24) u64 minimum dictionary bit pattern
//     [24,25) u8 dictionary value bit width, zero pad to 32
//     [32,..) bit-packed dictionary deltas (D values, sorted ascending by
//             pattern, stored as pattern - minimum), then bit-packed codes
//             (row count values). Codes index the sorted dictionary.
//   rle    aux = run count R; width = 0
//     [16,..) R raw element values (8-aligned), then R cumulative u32 run
//             ends (strictly increasing, last == row count)
//   delta  aux = 0; width = 0; frame-of-reference in blocks of 128 rows
//     [16,..) u64 per-block anchors (block minimum pattern), u32 per-block
//             byte offsets into the packed area, u8 per-block bit widths,
//             then the packed per-block deltas (pattern - anchor)
//
// Bit widths are restricted to {0..56, 64} so any packed value spans at most
// 8 bytes and decodes with one unaligned u64 load; packed arrays are padded
// so that load is always in bounds. All sub-arrays start 8-aligned.
//
// The encoder is a pure function of the decoded values: re-encoding a
// decoded column reproduces the input bytes exactly, which is what keeps
// snapshot round trips byte-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace ac::table::enc {

/// On-disk encoding tags (section table entry byte 9). Never renumber; tag
/// 4 (a retired cross-reference encoding) is unknown.
enum class encoding : std::uint8_t {
    plain = 0,
    dict = 1,
    rle = 2,
    delta = 3,
};

inline constexpr std::uint8_t max_encoding_tag = 3;

[[nodiscard]] constexpr const char* encoding_name(encoding e) noexcept {
    switch (e) {
        case encoding::plain: return "plain";
        case encoding::dict: return "dict";
        case encoding::rle: return "rle";
        case encoding::delta: return "delta";
    }
    return "unknown";
}

inline constexpr std::size_t header_bytes = 16;
inline constexpr std::size_t delta_block_rows = 128;

// ------------------------------------------------------------ bit packing --

[[nodiscard]] constexpr bool valid_width(unsigned w) noexcept {
    return w <= 56 || w == 64;
}

/// Smallest permitted width that can hold `max_value` (0 for max_value 0;
/// widths 57..63 round up to 64 so a value never spans more than 8 bytes).
[[nodiscard]] constexpr unsigned bits_for(std::uint64_t max_value) noexcept {
    unsigned w = 0;
    while (w < 64 && (max_value >> w) != 0) ++w;
    return w > 56 ? 64 : w;
}

[[nodiscard]] constexpr std::uint64_t align8(std::uint64_t n) noexcept {
    return (n + 7) / 8 * 8;
}

/// Bytes a packed array of n width-w values occupies, including the padding
/// that keeps the one-u64-load decode of the last value in bounds (for
/// w <= 56, ((n-1)*w)/8 + 8 covers ceil(n*w/8)).
[[nodiscard]] constexpr std::uint64_t packed_bytes(std::uint64_t n, unsigned w) noexcept {
    if (n == 0 || w == 0) return 0;
    if (w == 64) return n * 8;
    return align8((n - 1) * w / 8 + 8);
}

[[nodiscard]] inline std::uint64_t read_packed(const std::byte* base, std::uint64_t i,
                                               unsigned w) noexcept {
    if (w == 0) return 0;
    if (w == 64) {
        std::uint64_t v;
        std::memcpy(&v, base + i * 8, 8);
        return v;
    }
    const std::uint64_t bit = i * w;
    std::uint64_t word;
    std::memcpy(&word, base + (bit >> 3), 8);
    return (word >> (bit & 7)) & ((std::uint64_t{1} << w) - 1);
}

/// Writes value i into a zeroed, padded buffer (values must be written in
/// any order but each exactly once; the OR never crosses a value boundary
/// because widths cap at 56 bits).
inline void write_packed(std::byte* base, std::uint64_t i, unsigned w,
                         std::uint64_t v) noexcept {
    if (w == 0) return;
    if (w == 64) {
        std::memcpy(base + i * 8, &v, 8);
        return;
    }
    const std::uint64_t bit = i * w;
    std::uint64_t word;
    std::memcpy(&word, base + (bit >> 3), 8);
    word |= v << (bit & 7);
    std::memcpy(base + (bit >> 3), &word, 8);
}

/// Zero-extended little-endian load of one element's bit pattern.
[[nodiscard]] inline std::uint64_t load_bits(const std::byte* p,
                                             std::uint32_t elem) noexcept {
    std::uint64_t v = 0;
    std::memcpy(&v, p, elem);
    return v;
}

// ------------------------------------------------------------ view layer --

/// A validated view over one encoded payload. All pointers reference
/// externally owned bytes; the view itself is trivially copyable.
struct view_core {
    encoding kind = encoding::plain;
    std::uint32_t elem = 0;  // element size in bytes (1, 4 or 8)
    std::uint64_t rows = 0;
    const std::byte* values = nullptr;  // plain: elements; rle: run values
    const std::byte* packed = nullptr;  // dict: codes; delta: packed area
    const std::byte* aux1 = nullptr;    // dict: dict deltas; rle: run ends; delta: anchors
    const std::byte* aux2 = nullptr;    // delta: block byte offsets (u32)
    const std::byte* aux3 = nullptr;    // delta: block bit widths (u8)
    std::uint64_t aux = 0;              // dict: D; rle: R
    std::uint64_t dict_min = 0;
    unsigned width = 0;        // dict: code width
    unsigned value_width = 0;  // dict: dictionary value width

    [[nodiscard]] std::uint64_t dict_value_bits(std::uint64_t code) const noexcept {
        return dict_min + read_packed(aux1, code, value_width);
    }

    /// Decodes every row, in order, into plain values. RLE replays each
    /// run's value (no per-row search), delta reads each block's anchor and
    /// width once. The view must come from a successful parse_view.
    template <typename T>
    [[nodiscard]] std::vector<T> decode() const {
        static_assert(sizeof(T) <= 8);
        std::vector<T> out;
        out.reserve(rows);
        auto emit = [&](std::uint64_t bits) {
            T v;
            std::memcpy(&v, &bits, sizeof(T));
            out.push_back(v);
        };
        switch (kind) {
            case encoding::plain:
                for (std::uint64_t i = 0; i < rows; ++i) {
                    emit(load_bits(values + i * elem, elem));
                }
                break;
            case encoding::dict:
                for (std::uint64_t i = 0; i < rows; ++i) {
                    emit(dict_value_bits(read_packed(packed, i, width)));
                }
                break;
            case encoding::rle: {
                const auto* ends = reinterpret_cast<const std::uint32_t*>(aux1);
                std::uint32_t begin = 0;
                for (std::uint64_t r = 0; r < aux; ++r) {
                    const std::uint64_t bits = load_bits(values + r * elem, elem);
                    for (std::uint32_t i = begin; i < ends[r]; ++i) emit(bits);
                    begin = ends[r];
                }
                break;
            }
            case encoding::delta:
                for (std::uint64_t b = 0; b * delta_block_rows < rows; ++b) {
                    std::uint64_t anchor;
                    std::memcpy(&anchor, aux1 + b * 8, 8);
                    std::uint32_t offset;
                    std::memcpy(&offset, aux2 + b * 4, 4);
                    const auto w = static_cast<unsigned>(aux3[b]);
                    const std::uint64_t n =
                        std::min<std::uint64_t>(delta_block_rows,
                                                rows - b * delta_block_rows);
                    for (std::uint64_t i = 0; i < n; ++i) {
                        emit(anchor + read_packed(packed + offset, i, w));
                    }
                }
                break;
        }
        return out;
    }
};

// -------------------------------------------------------------- encoding --

/// The writer-side result of choosing an encoding for one column: plain
/// keeps `bytes` empty (the caller writes the raw element array).
struct encoded_payload {
    encoding kind = encoding::plain;
    std::vector<std::byte> bytes;
};

namespace detail {

struct header_fields {
    std::uint32_t rows = 0;
    std::uint8_t width = 0;
    std::uint64_t aux = 0;
};

inline void write_header(std::byte* at, const header_fields& h) {
    std::memcpy(at, &h.rows, 4);
    at[4] = static_cast<std::byte>(h.width);
    at[5] = std::byte{0};                    // flags
    std::memset(at + 6, 0, 2);               // reserved
    std::memcpy(at + 8, &h.aux, 8);
}

} // namespace detail

/// Auto-chooses the smallest encoding for a column of bit patterns and
/// materializes its payload. Deterministic: size ties break toward the
/// smaller encoding tag, and anything that fails to beat plain stays plain.
template <typename T>
[[nodiscard]] encoded_payload choose_and_encode(std::span<const T> values) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
    encoded_payload out;
    const std::uint64_t n = values.size();
    if (n == 0 || n >= (std::uint64_t{1} << 32)) return out;
    const std::uint64_t plain_size = n * sizeof(T);

    std::vector<std::uint64_t> bits(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        bits[i] = load_bits(reinterpret_cast<const std::byte*>(values.data()) + i * sizeof(T),
                            sizeof(T));
    }

    // dict candidate: sorted unique patterns, frame-of-reference packed.
    std::vector<std::uint64_t> dict_values = bits;
    std::sort(dict_values.begin(), dict_values.end());
    dict_values.erase(std::unique(dict_values.begin(), dict_values.end()),
                      dict_values.end());
    const std::uint64_t dict_size = dict_values.size();
    const unsigned code_width = bits_for(dict_size - 1);
    const unsigned dict_value_width = bits_for(dict_values.back() - dict_values.front());
    const std::uint64_t dict_bytes = header_bytes + 16 +
                                     packed_bytes(dict_size, dict_value_width) +
                                     packed_bytes(n, code_width);

    // rle candidate: run values + cumulative run ends.
    std::uint64_t runs = 1;
    for (std::uint64_t i = 1; i < n; ++i) runs += bits[i] != bits[i - 1] ? 1 : 0;
    const std::uint64_t rle_bytes =
        header_bytes + align8(runs * sizeof(T)) + align8(runs * 4);

    // delta candidate: per-128-row-block frame of reference.
    const std::uint64_t blocks = (n + delta_block_rows - 1) / delta_block_rows;
    std::vector<std::uint8_t> block_widths(blocks);
    std::uint64_t delta_packed = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::uint64_t begin = b * delta_block_rows;
        const std::uint64_t end = std::min(n, begin + delta_block_rows);
        std::uint64_t lo = bits[begin];
        std::uint64_t hi = bits[begin];
        for (std::uint64_t i = begin + 1; i < end; ++i) {
            lo = std::min(lo, bits[i]);
            hi = std::max(hi, bits[i]);
        }
        block_widths[b] = static_cast<std::uint8_t>(bits_for(hi - lo));
        delta_packed += packed_bytes(end - begin, block_widths[b]);
    }
    const std::uint64_t delta_bytes =
        header_bytes + blocks * 8 + align8(blocks * 4) + align8(blocks) + delta_packed;

    const std::uint64_t best = std::min({dict_bytes, rle_bytes, delta_bytes});
    if (best >= plain_size) return out;

    if (best == dict_bytes) {
        out.kind = encoding::dict;
        out.bytes.assign(dict_bytes, std::byte{0});
        detail::write_header(out.bytes.data(),
                             {static_cast<std::uint32_t>(n),
                              static_cast<std::uint8_t>(code_width), dict_size});
        std::memcpy(out.bytes.data() + 16, &dict_values.front(), 8);
        out.bytes[24] = static_cast<std::byte>(dict_value_width);
        std::byte* dict_area = out.bytes.data() + 32;
        for (std::uint64_t d = 0; d < dict_size; ++d) {
            write_packed(dict_area, d, dict_value_width,
                         dict_values[d] - dict_values.front());
        }
        std::byte* codes = dict_area + packed_bytes(dict_size, dict_value_width);
        for (std::uint64_t i = 0; i < n; ++i) {
            const auto it =
                std::lower_bound(dict_values.begin(), dict_values.end(), bits[i]);
            write_packed(codes, i, code_width,
                         static_cast<std::uint64_t>(it - dict_values.begin()));
        }
        return out;
    }
    if (best == rle_bytes) {
        out.kind = encoding::rle;
        out.bytes.assign(rle_bytes, std::byte{0});
        detail::write_header(out.bytes.data(),
                             {static_cast<std::uint32_t>(n), 0, runs});
        std::byte* run_values = out.bytes.data() + header_bytes;
        std::byte* run_ends = run_values + align8(runs * sizeof(T));
        std::uint64_t r = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i + 1 == n || bits[i + 1] != bits[i]) {
                std::memcpy(run_values + r * sizeof(T), &bits[i], sizeof(T));
                const auto end = static_cast<std::uint32_t>(i + 1);
                std::memcpy(run_ends + r * 4, &end, 4);
                ++r;
            }
        }
        return out;
    }
    out.kind = encoding::delta;
    out.bytes.assign(delta_bytes, std::byte{0});
    detail::write_header(out.bytes.data(), {static_cast<std::uint32_t>(n), 0, 0});
    std::byte* anchors = out.bytes.data() + header_bytes;
    std::byte* offsets = anchors + blocks * 8;
    std::byte* widths = offsets + align8(blocks * 4);
    std::byte* packed = widths + align8(blocks);
    std::uint32_t cursor = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::uint64_t begin = b * delta_block_rows;
        const std::uint64_t end = std::min(n, begin + delta_block_rows);
        std::uint64_t lo = bits[begin];
        for (std::uint64_t i = begin + 1; i < end; ++i) lo = std::min(lo, bits[i]);
        std::memcpy(anchors + b * 8, &lo, 8);
        std::memcpy(offsets + b * 4, &cursor, 4);
        widths[b] = static_cast<std::byte>(block_widths[b]);
        const auto w = static_cast<unsigned>(block_widths[b]);
        for (std::uint64_t i = begin; i < end; ++i) {
            write_packed(packed + cursor, i - begin, w, bits[i] - lo);
        }
        cursor += static_cast<std::uint32_t>(packed_bytes(end - begin, w));
    }
    return out;
}

// ------------------------------------------------------------ validation --

/// Parses and fully validates one encoded payload into a view.
/// Returns an empty string on success, else a description of the defect
/// (every payload array is bounds- and range-checked before any caller
/// trusts an offset, so corrupt encodings fail typed, never UB).
///
/// A header's row count is not bounded by its payload: a width-0 dict or a
/// one-run rle payload of 32 bytes can claim 2^32 - 1 rows. An encoded
/// payload claiming more than `max_rows` rows is rejected here, before any
/// per-row scan, so `view_core::decode` never reserves more than the caller
/// allowed. Plain payloads hold their rows and ignore the bound.
[[nodiscard]] inline std::string parse_view(encoding kind,
                                            std::span<const std::byte> payload,
                                            std::uint32_t elem, std::uint64_t max_rows,
                                            view_core& out) {
    out = view_core{};
    out.kind = kind;
    out.elem = elem;
    if (kind == encoding::plain) {
        out.values = payload.data();
        out.rows = payload.size() / elem;
        return {};
    }
    if (elem != 1 && elem != 4 && elem != 8) return "encoded section element size";
    if (payload.size() < header_bytes) return "payload shorter than encoding header";
    std::uint32_t rows;
    std::memcpy(&rows, payload.data(), 4);
    const auto width = static_cast<unsigned>(payload[4]);
    if (payload[5] != std::byte{0} || payload[6] != std::byte{0} ||
        payload[7] != std::byte{0}) {
        return "nonzero flags/reserved in encoding header";
    }
    std::uint64_t aux;
    std::memcpy(&aux, payload.data() + 8, 8);
    out.rows = rows;
    out.aux = aux;
    out.width = width;
    if (rows == 0) return "zero-row encoded payload";
    if (rows > max_rows) return "row count exceeds the decode bound";
    if (!valid_width(width)) return "invalid bit width";

    switch (kind) {
        case encoding::dict: {
            if (aux == 0 || aux > rows) return "dictionary size out of range";
            if (payload.size() < 32) return "dict payload shorter than its header";
            std::memcpy(&out.dict_min, payload.data() + 16, 8);
            out.value_width = static_cast<unsigned>(payload[24]);
            if (!valid_width(out.value_width)) return "invalid dictionary value width";
            const std::uint64_t want = 32 + packed_bytes(aux, out.value_width) +
                                       packed_bytes(rows, width);
            if (payload.size() != want) return "dict payload size mismatch";
            out.aux1 = payload.data() + 32;
            out.packed = out.aux1 + packed_bytes(aux, out.value_width);
            for (std::uint64_t i = 0; i < rows; ++i) {
                if (read_packed(out.packed, i, width) >= aux) {
                    return "dictionary code out of range";
                }
            }
            return {};
        }
        case encoding::rle: {
            if (aux == 0 || aux > rows) return "run count out of range";
            const std::uint64_t want =
                header_bytes + align8(aux * elem) + align8(aux * 4);
            if (payload.size() != want) return "rle payload size mismatch";
            out.values = payload.data() + header_bytes;
            out.aux1 = out.values + align8(aux * elem);
            const auto* ends = reinterpret_cast<const std::uint32_t*>(out.aux1);
            std::uint32_t prev = 0;
            for (std::uint64_t r = 0; r < aux; ++r) {
                if (ends[r] <= prev) return "rle run ends not strictly increasing";
                prev = ends[r];
            }
            if (prev != rows) return "rle run ends do not cover the row count";
            return {};
        }
        case encoding::delta: {
            if (width != 0 || aux != 0) return "delta header width/aux must be zero";
            const std::uint64_t blocks =
                (std::uint64_t{rows} + delta_block_rows - 1) / delta_block_rows;
            const std::uint64_t fixed =
                header_bytes + blocks * 8 + align8(blocks * 4) + align8(blocks);
            if (payload.size() < fixed) return "delta payload shorter than its tables";
            out.aux1 = payload.data() + header_bytes;
            out.aux2 = out.aux1 + blocks * 8;
            out.aux3 = out.aux2 + align8(blocks * 4);
            out.packed = out.aux3 + align8(blocks);
            std::uint64_t cursor = 0;
            for (std::uint64_t b = 0; b < blocks; ++b) {
                const auto w = static_cast<unsigned>(out.aux3[b]);
                if (!valid_width(w)) return "invalid delta block width";
                std::uint32_t offset;
                std::memcpy(&offset, out.aux2 + b * 4, 4);
                if (offset != cursor) return "delta block offsets are inconsistent";
                const std::uint64_t block_n =
                    std::min<std::uint64_t>(delta_block_rows,
                                            rows - b * delta_block_rows);
                cursor += packed_bytes(block_n, w);
            }
            if (payload.size() != fixed + cursor) return "delta payload size mismatch";
            return {};
        }
        case encoding::plain: break;
    }
    return "encoding tag is not parseable here";
}

} // namespace ac::table::enc
