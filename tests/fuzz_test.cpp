// Deterministic mutation tests over four input surfaces (ROADMAP item 1).
//
// No fuzzing engine: every case is enumerated from a committed or generated
// seed, so a failure names its case and reproduces exactly.
//   - Snapshot packed sections: the small world's `world/config` and
//     `ditl/0/meta` payloads, at every truncation length and with every
//     single bit flipped. Each mutant is re-wrapped by snapshot::writer, so
//     the checksums hold and the bytes reach the section reader itself.
//   - Snapshot container structure: every bit of the small world image's
//     64-byte header and of the first 40 bytes of its first, a middle and
//     its last section entry flipped, and every u64 offset/length field
//     there set to 0, the file size, the file size + 1 and 2^63, with the
//     whole-file checksum recomputed, so the bytes reach the structural
//     checks of the header and section table.
//   - Encoded sections: in a dict, an rle and a delta section, the
//     header's u32 row count set to edge values and bit-flipped; the dict
//     value width set to every byte value, codes >= the dictionary size,
//     the dictionary size and every dictionary-delta bit; each rle run end
//     set to increasing and non-increasing values and a last end other than
//     the row count; each delta block width set to every byte value and
//     each block offset pushed inside and past the packed area. Checksums
//     are recomputed, so the bytes reach the encoding validation.
//   - Hydration: the last `server/region` row of an all-plain small world
//     set to the first ids past its region table, and its last
//     `client/ring` row set to -1, INT32_MAX and the first rings past its
//     ring count, checksums recomputed.
//   - Grid specs: ci/sweep_smoke.txt truncated at every byte, with every bit
//     flipped, and with lines dropped, duplicated and spliced in.
//   - Timelines: the all-letter scenario ci/scenario_all_letters.txt and a
//     timeline of all four demand-* events, mutated the same way, plus each
//     numeric token pushed past 2^31 and 2^32. A timeline that parses must
//     hold every field inside its documented bound (src/scenario/event.h).
//   - HTTP requests: a /route request, a batched /inflation request and the
//     two pipelined, each truncated at every byte and with every bit
//     flipped, sent one case per loopback connection to a live server.
// Each case must yield a value or the surface's typed error (snapshot_error,
// spec_error, timeline_error; for HTTP, a closed connection or a
// 200/400/404/405 response): never another exception, a crash, or, under
// AC_SANITIZE=address (ci/verify.sh --asan), a sanitizer report.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "src/core/world.h"
#include "src/scenario/event.h"
#include "src/serve/http.h"
#include "src/serve/query_engine.h"
#include "src/snapshot/world_io.h"
#include "src/snapshot/xxhash64.h"
#include "src/sweep/spec.h"
#include "tests/http_test_client.h"

namespace {

using namespace ac;

/// Every truncation of `seed`, then every single-bit flip.
std::vector<std::vector<std::byte>> mutants(std::span<const std::byte> seed) {
    std::vector<std::vector<std::byte>> out;
    for (std::size_t keep = 0; keep < seed.size(); ++keep) {
        out.emplace_back(seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    for (std::size_t at = 0; at < seed.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            auto& m = out.emplace_back(seed.begin(), seed.end());
            m[at] ^= static_cast<std::byte>(1u << bit);
        }
    }
    return out;
}

/// Runs one case; anything but a value or `Typed` is a failure naming it.
template <typename Typed>
void expect_value_or(const std::function<void()>& run, const std::string& which) {
    try {
        run();
    } catch (const Typed&) {
    } catch (const std::exception& e) {
        ADD_FAILURE() << which << ": untyped " << typeid(e).name() << ": " << e.what();
    }
}

// ---------------------------------------------------------------- snapshot

/// The small world's snapshot image, encoded once.
const std::vector<std::byte>& small_world_image() {
    static const auto image = snapshot::encode_world(core::world{core::world_config::small()});
    return image;
}

class PackedSectionMutation : public ::testing::Test {
protected:
    /// The small world's snapshot, opened once.
    static const snapshot::bundle& seed() {
        static const auto b = snapshot::bundle::from_bytes(small_world_image());
        return *b;
    }
};

TEST_F(PackedSectionMutation, WorldConfig) {
    const auto original = seed().raw("world/config");
    ASSERT_FALSE(original.empty());
    std::size_t decoded = 0;
    const auto cases = mutants(original);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& m = cases[i];
        expect_value_or<snapshot::snapshot_error>(
            [&] {
                snapshot::writer w;
                w.add_raw("world/config", m.data(), m.size());
                const auto config =
                    snapshot::read_config(*snapshot::bundle::from_bytes(w.finish()));
                // A config section holds no field with two encodings of one
                // value, so whatever decodes re-encodes to the same bytes.
                EXPECT_EQ(snapshot::encode_config(config), m) << "case " << i;
                ++decoded;
            },
            "world/config case " + std::to_string(i));
    }
    // Flipped payload bits inside doubles and counts still decode.
    EXPECT_GT(decoded, 0u);
    EXPECT_LT(decoded, cases.size());
}

TEST_F(PackedSectionMutation, DitlMeta) {
    const auto original = seed().raw("ditl/0/meta");
    ASSERT_FALSE(original.empty());
    const auto cases = mutants(original);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        expect_value_or<snapshot::snapshot_error>(
            [&] {
                snapshot::writer w;
                w.add_scalar<std::uint32_t>("ditl/letter_count", 1);
                w.add_raw("ditl/0/meta", cases[i].data(), cases[i].size());
                w.add_column<std::uint32_t>("ditl/0/rec/source_ip", {});
                w.add_column<std::uint32_t>("ditl/0/rec/site", {});
                w.add_column<std::uint8_t>("ditl/0/rec/category", {});
                w.add_column<double>("ditl/0/rec/qpd", {});
                w.add_column<std::uint32_t>("ditl/0/tcp/source", {});
                w.add_column<std::uint32_t>("ditl/0/tcp/site", {});
                w.add_column<std::int32_t>("ditl/0/tcp/samples", {});
                w.add_column<double>("ditl/0/tcp/median", {});
                w.add_column<double>("ditl/0/tcp/qpd", {});
                const auto dataset =
                    snapshot::read_ditl(*snapshot::bundle::from_bytes(w.finish()));
                ASSERT_EQ(dataset.letters.size(), 1u);
                EXPECT_EQ(dataset.letters[0].spec.letter, dataset.letters[0].letter);
            },
            "ditl/0/meta case " + std::to_string(i));
    }
}

// ------------------------------------------------------- encoded headers

/// Recomputes the file checksum of `img` from its bytes as they stand.
void reseal_file(std::vector<std::byte>& img) {
    const std::uint64_t head = snapshot::xxhash64(img.data(), 56);
    const std::uint64_t sum = snapshot::xxhash64(img.data() + snapshot::header_bytes,
                                                 img.size() - snapshot::header_bytes, head);
    std::memcpy(img.data() + 56, &sum, sizeof sum);
}

/// Recomputes every section checksum and the file checksum of `img`, so an
/// in-place edit reaches the encoding validation instead of a checksum.
/// The section table must be intact: its offsets are trusted.
void reseal(std::vector<std::byte>& img) {
    std::uint32_t count = 0;
    std::memcpy(&count, img.data() + 12, sizeof count);
    for (std::uint32_t i = 0; i < count; ++i) {
        auto* entry = img.data() + snapshot::header_bytes + snapshot::section_entry_bytes * i;
        std::uint64_t off = 0;
        std::uint64_t bytes = 0;
        std::memcpy(&off, entry + 16, sizeof off);
        std::memcpy(&bytes, entry + 24, sizeof bytes);
        const std::uint64_t sum = snapshot::xxhash64(img.data() + off, bytes);
        std::memcpy(entry + 32, &sum, sizeof sum);
    }
    reseal_file(img);
}

/// Decodes every section of `b` by its element type: an opened bundle's
/// sections must all come back at their recorded row count.
void expect_sections_decode(const snapshot::bundle& b, const std::string& which) {
    for (const auto& s : b.sections()) {
        const std::string name{s.name};
        const auto rows = [&]<typename T>(T) { return b.typed_column<T>(name).size(); };
        std::size_t got = 0;
        switch (s.type) {
            case snapshot::elem_type::raw: got = b.raw(name).size() / s.elem_size; break;
            case snapshot::elem_type::u8: got = rows(std::uint8_t{}); break;
            case snapshot::elem_type::u32: got = rows(std::uint32_t{}); break;
            case snapshot::elem_type::u64: got = rows(std::uint64_t{}); break;
            case snapshot::elem_type::i32: got = rows(std::int32_t{}); break;
            case snapshot::elem_type::i64: got = rows(std::int64_t{}); break;
            case snapshot::elem_type::f64: got = rows(double{}); break;
        }
        EXPECT_EQ(got, s.rows) << which << ": " << name;
    }
}

TEST(ContainerMutation, HeaderAndSectionTable) {
    const auto& seed = small_world_image();
    const auto clean = snapshot::bundle::from_bytes(seed);
    const std::size_t count = clean->sections().size();
    ASSERT_GT(count, 2u);
    const std::uint64_t size = seed.size();
    const auto entry_at = [](std::size_t i) {
        return snapshot::header_bytes + snapshot::section_entry_bytes * i;
    };

    // Each case edits a copy of the image; only the whole-file checksum is
    // recomputed (the section checksums stay as written, because a mutated
    // offset would send a recomputation out of bounds).
    std::size_t opened = 0;
    std::size_t cases = 0;
    const auto run = [&](const std::function<void(std::vector<std::byte>&)>& mutate,
                         const std::string& which) {
        auto img = seed;
        mutate(img);
        reseal_file(img);
        ++cases;
        expect_value_or<snapshot::snapshot_error>(
            [&] {
                const auto b = snapshot::bundle::from_bytes(img);
                expect_sections_decode(*b, which);
                ++opened;
            },
            which);
    };
    const auto flip_bits = [&](std::size_t begin, std::size_t end, const std::string& what) {
        for (std::size_t at = begin; at < end; ++at) {
            for (int bit = 0; bit < 8; ++bit) {
                run([&](auto& img) { img[at] ^= static_cast<std::byte>(1u << bit); },
                    what + " byte " + std::to_string(at - begin) + " bit " +
                        std::to_string(bit));
            }
        }
    };
    const auto set_u64 = [&](std::size_t at, const std::string& what) {
        for (const std::uint64_t v : {std::uint64_t{0}, size, size + 1, std::uint64_t{1} << 63}) {
            run([&](auto& img) { std::memcpy(img.data() + at, &v, sizeof v); },
                what + " = " + std::to_string(v));
        }
    };

    flip_bits(0, snapshot::header_bytes, "header");
    // Table offset, name blob offset and length, first payload, file length.
    for (const std::size_t at : {16, 24, 32, 40, 48}) {
        set_u64(at, "header field " + std::to_string(at));
    }
    for (const std::size_t i : {std::size_t{0}, count / 2, count - 1}) {
        const std::string entry = "entry " + std::to_string(i);
        flip_bits(entry_at(i), entry_at(i) + snapshot::section_entry_bytes, entry);
        set_u64(entry_at(i) + 16, entry + " payload offset");
        set_u64(entry_at(i) + 24, entry + " payload length");
    }
    EXPECT_EQ(cases, 64u * 8 + 5 * 4 + 3 * (40 * 8 + 2 * 4));
    // Flips of the checksum field itself are undone by the reseal, so some
    // cases open.
    EXPECT_GT(opened, 0u);
    EXPECT_LT(opened, cases);
}

/// One 300-row u32 section per encoding: "dict" (i % 7: seven values,
/// 3-bit codes), "rle" (i / 50: six runs) and "delta" (1000000 + 3i: three
/// 128-row blocks).
const std::vector<std::byte>& encoded_image() {
    static const auto image = [] {
        std::vector<std::uint32_t> dict;
        std::vector<std::uint32_t> runs;
        std::vector<std::uint32_t> arithmetic;
        for (std::uint32_t i = 0; i < 300; ++i) {
            dict.push_back(i % 7);
            runs.push_back(i / 50);
            arithmetic.push_back(1000000 + 3 * i);
        }
        snapshot::writer w;
        w.add_column_encoded<std::uint32_t>("dict", dict);
        w.add_column_encoded<std::uint32_t>("rle", runs);
        w.add_column_encoded<std::uint32_t>("delta", arithmetic);
        return w.finish();
    }();
    return image;
}

/// Edits a copy of encoded_image() in place through `mutate`, which gets
/// the payload of `section`, and reseals it. The file must then fail with
/// a snapshot_error or open with every section decoding to its row count.
/// Returns whether it opened.
bool opens_after_edit(const std::string& section,
                      const std::function<void(std::byte* payload)>& mutate,
                      const std::string& which) {
    auto img = encoded_image();
    const auto clean = snapshot::bundle::from_bytes(img);
    mutate(img.data() + clean->section(section).payload_offset);
    reseal(img);
    bool opened = false;
    expect_value_or<snapshot::snapshot_error>(
        [&] {
            const auto b = snapshot::bundle::from_bytes(img);
            for (const auto& t : b->sections()) {
                EXPECT_EQ(b->typed_column<std::uint32_t>(t.name).size(), t.rows) << which;
            }
            opened = true;
        },
        which);
    return opened;
}

template <typename T>
void store(std::byte* at, T value) {
    std::memcpy(at, &value, sizeof value);
}

TEST(EncodedHeaderMutation, RowCount) {
    // Each section's header u32 row count replaced by every value below.
    const auto clean = snapshot::bundle::from_bytes(encoded_image());
    ASSERT_EQ(clean->sections().size(), 3u);
    for (const auto& s : clean->sections()) {
        ASSERT_NE(s.encoding, table::enc::encoding::plain) << s.name;
        const auto rows = static_cast<std::uint32_t>(s.rows);
        std::vector<std::uint32_t> counts{0,       1,       rows - 1, rows + 1, 2 * rows,
                                          1 << 16, 1 << 25, 0xFFFFFFFF};
        for (int bit = 0; bit < 32; ++bit) counts.push_back(rows ^ (std::uint32_t{1} << bit));
        for (const std::uint32_t count : counts) {
            (void)opens_after_edit(
                std::string{s.name}, [&](std::byte* p) { store(p, count); },
                std::string{s.name} + " rows " + std::to_string(count));
        }
    }
}

// Encoded payload bodies, past the header (layouts in src/table/encoding.h).

TEST(EncodedBodyMutation, DictValueWidthAndCodes) {
    const auto clean = snapshot::bundle::from_bytes(encoded_image());
    const auto& s = clean->section("dict");
    ASSERT_EQ(s.encoding, table::enc::encoding::dict);
    std::byte header[32];
    std::memcpy(header, encoded_image().data() + s.payload_offset, sizeof header);
    std::uint64_t dict_size = 0;
    std::memcpy(&dict_size, header + 8, sizeof dict_size);
    const auto code_width = static_cast<unsigned>(header[4]);
    const auto value_width = static_cast<unsigned>(header[24]);
    ASSERT_EQ(dict_size, 7u);
    ASSERT_EQ(code_width, 3u);
    const std::uint64_t codes_at = 32 + table::enc::packed_bytes(dict_size, value_width);

    // Every dictionary value width. A width outside {0..56, 64} fails; a
    // valid one opens only where it packs the dictionary into the same
    // bytes (the values change, the row count does not).
    std::size_t opened = 0;
    for (unsigned width = 0; width < 256; ++width) {
        const bool ok = opens_after_edit(
            "dict", [&](std::byte* p) { p[24] = static_cast<std::byte>(width); },
            "dict value width " + std::to_string(width));
        if (!table::enc::valid_width(width)) {
            EXPECT_FALSE(ok) << "dict value width " << width;
        }
        opened += ok;
    }
    EXPECT_GE(opened, 1u);

    // Codes >= D at the first, a middle and the last row: the one code the
    // 3-bit field holds past the dictionary, and an in-range control.
    const auto set_code = [&](std::uint64_t row, std::uint64_t code) {
        return [=](std::byte* p) {
            std::byte* codes = p + codes_at;
            const std::uint64_t bit = row * code_width;
            std::uint64_t word = 0;
            std::memcpy(&word, codes + bit / 8, sizeof word);
            const std::uint64_t mask = ((std::uint64_t{1} << code_width) - 1) << (bit % 8);
            word = (word & ~mask) | (code << (bit % 8));
            std::memcpy(codes + bit / 8, &word, sizeof word);
        };
    };
    for (const std::uint64_t row : {std::uint64_t{0}, std::uint64_t{150}, std::uint64_t{299}}) {
        for (std::uint64_t code = dict_size; code < (std::uint64_t{1} << code_width); ++code) {
            EXPECT_FALSE(opens_after_edit("dict", set_code(row, code),
                                          "dict row " + std::to_string(row) + " code " +
                                              std::to_string(code)));
        }
        EXPECT_TRUE(opens_after_edit("dict", set_code(row, dict_size - 1),
                                     "dict row " + std::to_string(row) + " last code"));
    }

    // The dictionary size itself: zero or past the row count fails, and a
    // size the codes and the payload length still fit opens.
    for (const std::uint64_t d : {std::uint64_t{0}, dict_size - 1, dict_size + 1,
                                  std::uint64_t{300}, std::uint64_t{301}, ~std::uint64_t{0}}) {
        const bool ok = opens_after_edit("dict", [&](std::byte* p) { store(p + 8, d); },
                                         "dict size " + std::to_string(d));
        if (d == 0 || d > 300) {
            EXPECT_FALSE(ok) << "dict size " << d;
        }
    }
    // Every bit of the packed dictionary deltas: any pattern is a value.
    for (std::uint64_t at = 32; at < codes_at; ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            EXPECT_TRUE(opens_after_edit(
                "dict", [&](std::byte* p) { p[at] ^= static_cast<std::byte>(1u << bit); },
                "dict delta byte " + std::to_string(at) + " bit " + std::to_string(bit)));
        }
    }
}

TEST(EncodedBodyMutation, RleRunEnds) {
    const auto clean = snapshot::bundle::from_bytes(encoded_image());
    const auto& s = clean->section("rle");
    ASSERT_EQ(s.encoding, table::enc::encoding::rle);
    const std::byte* payload = encoded_image().data() + s.payload_offset;
    std::uint64_t runs = 0;
    std::memcpy(&runs, payload + 8, sizeof runs);
    ASSERT_EQ(runs, 6u);
    const std::uint64_t ends_at = table::enc::header_bytes + table::enc::align8(runs * 4);
    std::vector<std::uint32_t> ends(runs);
    std::memcpy(ends.data(), payload + ends_at, runs * 4);
    const auto rows = static_cast<std::uint32_t>(s.rows);
    ASSERT_EQ(ends.back(), rows);

    // Each run end set to values that keep the ends strictly increasing and
    // ending at the row count (the run lengths change, the file opens) and
    // to values that do not (equal to or below its predecessor, at or past
    // its successor, or a last end other than the row count).
    for (std::uint64_t r = 0; r < runs; ++r) {
        const std::uint32_t prev = r == 0 ? 0 : ends[r - 1];
        const std::uint32_t next = r + 1 == runs ? rows : ends[r + 1];
        const bool last = r + 1 == runs;
        for (const std::uint32_t v : {std::uint32_t{0}, prev, prev + 1, next - 1, next,
                                      rows - 1, rows, rows + 1, std::uint32_t{0xFFFFFFFF}}) {
            const bool valid = last ? v == rows : (v > prev && v < next);
            EXPECT_EQ(opens_after_edit(
                          "rle", [&](std::byte* p) { store(p + ends_at + 4 * r, v); },
                          "rle end " + std::to_string(r) + " = " + std::to_string(v)),
                      valid)
                << "rle end " << r << " = " << v;
        }
    }
}

TEST(EncodedBodyMutation, DeltaBlockWidthsAndOffsets) {
    const auto clean = snapshot::bundle::from_bytes(encoded_image());
    const auto& s = clean->section("delta");
    ASSERT_EQ(s.encoding, table::enc::encoding::delta);
    const std::uint64_t blocks = (s.rows + table::enc::delta_block_rows - 1) /
                                 table::enc::delta_block_rows;
    ASSERT_EQ(blocks, 3u);
    const std::uint64_t offsets_at = table::enc::header_bytes + blocks * 8;
    const std::uint64_t widths_at = offsets_at + table::enc::align8(blocks * 4);
    const std::uint64_t packed_at = widths_at + table::enc::align8(blocks);
    const std::uint64_t packed_size = s.payload_bytes - packed_at;

    // Every block width 0..255: outside {0..56, 64} is invalid, and a valid
    // width other than the stored one no longer matches the payload size.
    for (std::uint64_t b = 0; b < blocks; ++b) {
        std::size_t opened = 0;
        for (unsigned width = 0; width < 256; ++width) {
            opened += opens_after_edit(
                "delta", [&](std::byte* p) { p[widths_at + b] = static_cast<std::byte>(width); },
                "delta block " + std::to_string(b) + " width " + std::to_string(width));
        }
        EXPECT_GE(opened, 1u) << "block " << b;
        EXPECT_LT(opened, 4u) << "block " << b;
    }

    // Block byte offsets inside, at the end of and past the packed area.
    for (std::uint64_t b = 0; b < blocks; ++b) {
        std::uint32_t stored = 0;
        std::memcpy(&stored, encoded_image().data() + s.payload_offset + offsets_at + 4 * b,
                    sizeof stored);
        const auto end = static_cast<std::uint32_t>(packed_size);
        for (const std::uint32_t offset : {stored + 1, stored + 8, end - 8, end, end + 1,
                                           end + 4096, std::uint32_t{0xFFFFFFFF}}) {
            if (offset == stored) continue;
            EXPECT_FALSE(opens_after_edit(
                "delta", [&](std::byte* p) { store(p + offsets_at + 4 * b, offset); },
                "delta block " + std::to_string(b) + " offset " + std::to_string(offset)));
        }
    }
}

// A server log row naming a region the stored config does not build is
// rejected at hydration, before any analysis looks the region up. The
// all-plain container (version 1) stores `server/region` as bare u32s, so
// one row is set in place and the checksums recomputed.
TEST(HydrationMutation, ServerRegionOutsideTheWorld) {
    const auto world =
        snapshot::hydrate_world_ptr(snapshot::bundle::from_bytes(small_world_image()));
    const auto plain = snapshot::encode_world(*world, 1);
    const auto clean = snapshot::bundle::from_bytes(plain);
    const auto& s = clean->section("server/region");
    ASSERT_EQ(s.encoding, table::enc::encoding::plain);
    ASSERT_GT(s.rows, 0U);
    const auto regions = static_cast<std::uint32_t>(world->regions().size());
    ASSERT_EQ(regions, static_cast<std::uint32_t>(core::world_config::small().regions.total()));

    const auto with_last_row = [&](std::uint32_t region) {
        auto img = plain;
        std::memcpy(img.data() + s.payload_offset + sizeof region * (s.rows - 1), &region,
                    sizeof region);
        reseal(img);
        return snapshot::hydrate_world_ptr(snapshot::bundle::from_bytes(img));
    };
    EXPECT_EQ(with_last_row(regions - 1)->server_log_table().region.view().back(), regions - 1);
    for (const std::uint32_t region : {regions, regions + 1, std::uint32_t{0xFFFFFFFF}}) {
        try {
            (void)with_last_row(region);
            ADD_FAILURE() << "region " << region << " hydrated";
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_EQ(e.code(), snapshot::errc::malformed) << e.what();
        }
    }
}

TEST(HydrationMutation, ClientRingOutsideTheWorld) {
    const auto world =
        snapshot::hydrate_world_ptr(snapshot::bundle::from_bytes(small_world_image()));
    const auto plain = snapshot::encode_world(*world, 1);
    const auto clean = snapshot::bundle::from_bytes(plain);
    const auto& s = clean->section("client/ring");
    ASSERT_EQ(s.encoding, table::enc::encoding::plain);
    ASSERT_GT(s.rows, 0U);
    const std::int32_t rings = world->cdn_net().ring_count();
    ASSERT_GT(rings, 0);

    const auto with_last_row = [&](std::int32_t ring) {
        auto img = plain;
        std::memcpy(img.data() + s.payload_offset + sizeof ring * (s.rows - 1), &ring,
                    sizeof ring);
        reseal(img);
        return snapshot::hydrate_world_ptr(snapshot::bundle::from_bytes(img));
    };
    EXPECT_EQ(with_last_row(rings - 1)->client_measurements().back().ring, rings - 1);
    for (const std::int32_t ring :
         {rings, rings + 1, std::int32_t{-1}, std::numeric_limits<std::int32_t>::max()}) {
        try {
            (void)with_last_row(ring);
            ADD_FAILURE() << "ring " << ring << " hydrated";
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_EQ(e.code(), snapshot::errc::malformed) << e.what();
        }
    }
}

// ------------------------------------------------------------ text inputs

std::string read_text(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in{text};
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
    std::string out;
    for (const auto& l : lines) out += l + '\n';
    return out;
}

using text_case = std::function<void(const std::string& text, const std::string& which)>;

/// Runs `check` on `seed`, on every truncation and single-bit flip of it, and
/// on it with each line dropped, doubled, replaced by another line, and
/// with another line's second half glued on.
void for_each_text_mutant(const std::string& seed, const text_case& check) {
    check(seed, "seed");
    for (std::size_t keep = 0; keep < seed.size(); ++keep) {
        check(seed.substr(0, keep), "truncated to " + std::to_string(keep));
    }
    for (std::size_t at = 0; at < seed.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            auto m = seed;
            m[at] = static_cast<char>(m[at] ^ (1 << bit));
            check(m, "bit " + std::to_string(bit) + " of byte " + std::to_string(at));
        }
    }

    const auto lines = split_lines(seed);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        auto dropped = lines;
        dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
        check(join_lines(dropped), "line " + std::to_string(i) + " dropped");

        auto doubled = lines;
        doubled.insert(doubled.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        check(join_lines(doubled), "line " + std::to_string(i) + " doubled");

        for (std::size_t j = 0; j < lines.size(); ++j) {
            auto replaced = lines;
            replaced[i] = lines[j];
            check(join_lines(replaced),
                  "line " + std::to_string(j) + " over line " + std::to_string(i));
            auto glued = lines;
            glued[i] += lines[j].substr(lines[j].size() / 2);
            check(join_lines(glued),
                  "half of line " + std::to_string(j) + " after line " + std::to_string(i));
        }
    }
}

// --------------------------------------------------------------- grid spec

/// Parses one mutant; a spec that parses must expand to uniquely named cells.
void expect_spec_or_error(const std::string& text, const std::string& which) {
    expect_value_or<sweep::spec_error>(
        [&] {
            std::istringstream in{text};
            const auto spec = sweep::parse_grid_spec(in);
            const auto cells = sweep::expand_cells(spec);
            EXPECT_EQ(cells.size(), spec.cell_count()) << which;
            std::set<std::string> names;
            for (const auto& c : cells) {
                EXPECT_TRUE(names.insert(c.name).second) << which << ": two cells " << c.name;
            }
        },
        which);
}

TEST(GridSpecMutation, SweepSmokeSpec) {
    const auto seed = read_text(std::string{AC_SOURCE_DIR} + "/ci/sweep_smoke.txt");
    ASSERT_FALSE(seed.empty());
    for_each_text_mutant(seed, expect_spec_or_error);
}

// ---------------------------------------------------------------- timeline

/// Parses one mutant; a timeline that parses must be sorted by step and hold
/// every field its event type uses inside the bound event.h documents (the
/// fields it does not use keep their defaults).
void expect_timeline_or_error(const std::string& text, const std::string& which) {
    expect_value_or<scenario::timeline_error>(
        [&] {
            const auto tl = scenario::parse_timeline_text(text);
            int previous = 0;
            for (const auto& e : tl.events) {
                const std::string at = which + ": " + e.describe();
                EXPECT_GE(e.step, previous) << at;
                EXPECT_LE(e.step, scenario::max_step) << at;
                previous = e.step;

                if (e.type == scenario::event_type::prepend) {
                    EXPECT_GE(e.prepend, 1) << at;
                    EXPECT_LE(e.prepend, scenario::max_prepend) << at;
                } else {
                    EXPECT_EQ(e.prepend, 0) << at;
                }
                if (e.type == scenario::event_type::demand_diurnal) {
                    EXPECT_GE(e.pct, 0) << at;
                    EXPECT_LE(e.pct, scenario::max_diurnal_amplitude_pct) << at;
                    EXPECT_GE(e.window, 2) << at;
                    EXPECT_LE(e.window, scenario::max_step) << at;
                } else if (scenario::is_demand_event(e.type)) {
                    EXPECT_GE(e.pct, 0) << at;
                    EXPECT_LE(e.pct, scenario::max_demand_pct) << at;
                } else {
                    EXPECT_EQ(e.pct, 100) << at;
                }
                if (e.type == scenario::event_type::demand_flash) {
                    EXPECT_GE(e.window, 1) << at;
                    EXPECT_LE(e.window, scenario::max_step) << at;
                } else if (e.type != scenario::event_type::demand_diurnal) {
                    EXPECT_EQ(e.window, 0) << at;
                }
            }
        },
        which);
}

/// `seed` with each all-digit token, one at a time, pushed past 2^31 and
/// 2^32 (n + 2^31, n + 2^32): values that wrap into accepted ones if the
/// parser narrows before it range-checks.
void for_each_widened_number(const std::string& seed, const text_case& check) {
    const auto lines = split_lines(seed);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::istringstream fields{lines[i]};
        std::vector<std::string> tokens;
        for (std::string tok; fields >> tok;) tokens.push_back(tok);
        for (std::size_t t = 0; t < tokens.size(); ++t) {
            if (tokens[t].find_first_not_of("0123456789") != std::string::npos) continue;
            for (const int shift : {31, 32}) {
                auto widened = tokens;
                widened[t] = std::to_string(std::stoull(tokens[t]) + (1ull << shift));
                auto mutated = lines;
                mutated[i].clear();
                for (const auto& w : widened) mutated[i] += w + ' ';
                check(join_lines(mutated), "token " + std::to_string(t) + " of line " +
                                               std::to_string(i) + " + 2^" +
                                               std::to_string(shift));
            }
        }
    }
}

TEST(TimelineMutation, AllLetterScenario) {
    const auto seed = read_text(std::string{AC_SOURCE_DIR} + "/ci/scenario_all_letters.txt");
    ASSERT_FALSE(seed.empty());
    ASSERT_FALSE(scenario::parse_timeline_text(seed).events.empty());
    for_each_text_mutant(seed, expect_timeline_or_error);
    for_each_widened_number(seed, expect_timeline_or_error);
}

TEST(TimelineMutation, EveryDemandEvent) {
    const std::string seed =
        "0 demand-diurnal 40 24\n"
        "1 demand-level 150\n"
        "2 demand-flash 1 300 2\n"
        "3 demand-hotspot 1 250\n";
    ASSERT_EQ(scenario::parse_timeline_text(seed).events.size(), 4u);
    for_each_text_mutant(seed, expect_timeline_or_error);
    for_each_widened_number(seed, expect_timeline_or_error);
}

// -------------------------------------------------------------------- http

/// Statuses of the back-to-back responses in `stream`, in order; -1 for
/// bytes that do not parse as a complete response.
std::vector<int> response_statuses(const std::string& stream) {
    std::vector<int> statuses;
    for (std::size_t at = 0; at < stream.size();) {
        const std::size_t header_end = stream.find("\r\n\r\n", at);
        const std::size_t length_at = stream.find("Content-Length: ", at);
        if (stream.compare(at, 9, "HTTP/1.1 ") != 0 || header_end == std::string::npos ||
            length_at == std::string::npos || length_at > header_end) {
            statuses.push_back(-1);
            break;
        }
        statuses.push_back(std::atoi(stream.c_str() + at + 9));
        at = header_end + 4 + std::strtoull(stream.c_str() + length_at + 16, nullptr, 10);
        if (at > stream.size()) {
            statuses.push_back(-1);
            break;
        }
    }
    return statuses;
}

TEST(HttpRequestMutation, RouteInflationAndPipelinedPair) {
    auto config = core::world_config::small();
    config.threads = 1;
    const serve::query_engine engine{std::make_unique<core::world>(std::move(config))};
    // A short header deadline bounds any case the server would wait on.
    serve::http_server server{engine,
                              {.port = 0, .header_deadline = std::chrono::milliseconds{200}}};
    server.start();

    const auto& rec = engine.world().users().recursives().front();
    const auto asns = engine.index().asns();
    ASSERT_GE(asns.size(), 3u);
    const std::string route = "GET /route?letter=" +
                              std::string(1, engine.catchments().begin()->first) +
                              "&asn=" + std::to_string(rec.asn) +
                              "&region=" + std::to_string(rec.region) +
                              " HTTP/1.1\r\nHost: t\r\n\r\n";
    const std::string inflation = "GET /inflation?asn=" + std::to_string(asns[0]) + "," +
                                  std::to_string(asns[1]) + "," + std::to_string(asns[2]) +
                                  " HTTP/1.1\r\nHost: t\r\n\r\n";

    std::size_t cases = 0;
    std::size_t answered_200 = 0;
    const auto check = [&](const std::string& request, const std::string& which) {
        testing_support::test_client client{server.port()};
        ASSERT_TRUE(client.connected()) << which;
        client.set_recv_timeout(std::chrono::milliseconds{5000});
        // A case the server hangs up on mid-send is a closed connection.
        client.send_raw(request);
        client.half_close();
        const std::string stream = client.read_to_end();
        EXPECT_TRUE(client.closed_within(std::chrono::milliseconds{0}))
            << which << ": connection left open";
        for (const int status : response_statuses(stream)) {
            EXPECT_TRUE(status == 200 || status == 400 || status == 404 || status == 405)
                << which << ": status " << status << "\n" << stream;
            if (status == 200) ++answered_200;
        }
        ++cases;
    };

    const std::pair<std::string, std::string> seeds[] = {
        {"route", route}, {"inflation", inflation}, {"pipelined", route + inflation}};
    for (const auto& [name, seed] : seeds) {
        check(seed, name + " seed");
        for (std::size_t keep = 0; keep < seed.size(); ++keep) {
            check(seed.substr(0, keep), name + " truncated to " + std::to_string(keep));
        }
        for (std::size_t at = 0; at < seed.size(); ++at) {
            for (int bit = 0; bit < 8; ++bit) {
                auto m = seed;
                m[at] = static_cast<char>(m[at] ^ (1 << bit));
                check(m, name + " bit " + std::to_string(bit) + " of byte " + std::to_string(at));
            }
        }
    }
    EXPECT_GT(answered_200, 0u);
    EXPECT_LT(answered_200, cases);

    // The server survived every case.
    testing_support::test_client client{server.port()};
    ASSERT_TRUE(client.connected());
    const auto response = client.get("/healthz");
    EXPECT_EQ(testing_support::test_client::status_of(response), 200);
    EXPECT_EQ(testing_support::test_client::body_of(response), "ok\n");
    server.stop();
}

} // namespace
