// Snapshot container: round trips, hydration fidelity, corruption handling.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/report.h"
#include "src/snapshot/world_io.h"
#include "src/snapshot/xxhash64.h"
#include "tests/figure_goldens.h"

namespace {

using namespace ac;

class SnapshotFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }

    /// The small world's snapshot image, encoded once.
    static const std::vector<std::byte>& image() {
        static const std::vector<std::byte> img = snapshot::encode_world(w());
        return img;
    }

    static std::filesystem::path temp_file(const std::string& suffix = "") {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        return std::filesystem::temp_directory_path() /
               (std::string{"ac_snapshot_"} + info->name() + suffix + ".acx");
    }

    static std::filesystem::path temp_dir(const std::string& suffix = "") {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        const auto dir = std::filesystem::temp_directory_path() /
                         (std::string{"ac_snapshot_"} + info->name() + suffix);
        std::filesystem::remove_all(dir);
        return dir;
    }

    static void write_image(const std::vector<std::byte>& bytes,
                            const std::filesystem::path& path) {
        std::ofstream out{path, std::ios::binary};
        ASSERT_TRUE(out) << path;
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

    static std::string read_bytes(const std::string& path) {
        std::ifstream in{path, std::ios::binary};
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    }

    static void expect_golden_figures(const core::world& world, const std::string& context) {
        const auto dir = temp_dir("_" + context);
        const auto files = core::write_figure_csvs(world, dir.string());
        ASSERT_EQ(files.size(), test::figure_goldens().size()) << context;
        for (const auto& f : files) {
            const auto name = std::filesystem::path{f}.filename().string();
            const auto it = test::figure_goldens().find(name);
            ASSERT_NE(it, test::figure_goldens().end()) << name << " (" << context << ")";
            EXPECT_EQ(test::fnv1a(read_bytes(f)), it->second) << name << " (" << context << ")";
        }
        std::filesystem::remove_all(dir);
    }

    static snapshot::errc code_of(const std::vector<std::byte>& bytes) {
        try {
            (void)snapshot::bundle::from_bytes(bytes);
        } catch (const snapshot::snapshot_error& e) {
            return e.code();
        }
        ADD_FAILURE() << "expected snapshot_error, image parsed cleanly";
        return snapshot::errc::io;
    }

    /// Recomputes the file checksum after a deliberate in-place edit, so the
    /// edit reaches the targeted validation layer instead of tripping the
    /// whole-file checksum.
    static void patch_file_checksum(std::vector<std::byte>& img) {
        const std::uint64_t head = snapshot::xxhash64(img.data(), 56);
        const std::uint64_t sum = snapshot::xxhash64(
            img.data() + snapshot::header_bytes, img.size() - snapshot::header_bytes, head);
        std::memcpy(img.data() + 56, &sum, sizeof sum);
    }

    /// Recomputes the stored checksum of the section whose payload starts at
    /// `payload_offset`.
    static void patch_section_checksums(std::vector<std::byte>& img,
                                        std::uint64_t payload_offset) {
        std::uint32_t count = 0;
        std::memcpy(&count, img.data() + 12, sizeof count);
        for (std::uint32_t i = 0; i < count; ++i) {
            auto* entry =
                img.data() + snapshot::header_bytes + snapshot::section_entry_bytes * i;
            std::uint64_t off = 0;
            std::uint64_t bytes = 0;
            std::memcpy(&off, entry + 16, sizeof off);
            std::memcpy(&bytes, entry + 24, sizeof bytes);
            if (off != payload_offset) continue;
            const std::uint64_t sum = snapshot::xxhash64(img.data() + off, bytes);
            std::memcpy(entry + 32, &sum, sizeof sum);
        }
    }
};

// ------------------------------------------------------------ writer/reader

TEST_F(SnapshotFixture, WriterRoundTripsSectionsInMemory) {
    snapshot::writer w;
    const std::vector<double> doubles{1.5, -2.25, 1e300};
    const std::vector<std::uint32_t> ints{7, 11};
    const char raw[] = "payload";
    w.add_scalar<std::uint64_t>("meta/count", 42);
    w.add_column<double>("col/d", doubles);
    w.add_column<std::uint32_t>("col/u", ints);
    w.add_raw("blob", raw, sizeof raw);
    ASSERT_EQ(w.section_count(), 4u);

    const auto b = snapshot::bundle::from_bytes(w.finish());
    EXPECT_EQ(b->sections().size(), 4u);
    EXPECT_EQ(b->scalar<std::uint64_t>("meta/count"), 42u);
    const auto d = b->column<double>("col/d");
    ASSERT_EQ(d.size(), doubles.size());
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(d[i], doubles[i]);
    const auto u = b->column<std::uint32_t>("col/u");
    ASSERT_EQ(u.size(), ints.size());
    EXPECT_EQ(u[0], 7u);
    EXPECT_EQ(u[1], 11u);
    EXPECT_EQ(b->raw("blob").size(), sizeof raw);

    // Every payload lands aligned for its container version (the mmap
    // zero-copy contract).
    const auto alignment = snapshot::payload_alignment_for(b->container_version());
    for (const auto& s : b->sections()) {
        EXPECT_EQ(s.payload_offset % alignment, 0u) << s.name;
    }
}

TEST_F(SnapshotFixture, TypedAccessErrors) {
    snapshot::writer w;
    const std::vector<std::uint32_t> ints{1, 2, 3};
    w.add_column<std::uint32_t>("col/u", ints);
    const auto b = snapshot::bundle::from_bytes(w.finish());

    try {
        (void)b->column<double>("col/u");
        FAIL() << "type_mismatch expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::type_mismatch);
    }
    try {
        (void)b->column<std::uint32_t>("absent");
        FAIL() << "section_missing expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::section_missing);
    }
    try {
        (void)b->scalar<std::uint32_t>("col/u");  // 3 values, not 1
        FAIL() << "malformed expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::malformed);
    }
}

TEST_F(SnapshotFixture, DuplicateSectionNameRejected) {
    snapshot::writer w;
    const std::vector<std::uint32_t> ints{1};
    w.add_column<std::uint32_t>("twice", ints);
    try {
        w.add_column<std::uint32_t>("twice", ints);
        FAIL() << "malformed expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::malformed);
    }
}

// ------------------------------------------------------- hydration fidelity

TEST_F(SnapshotFixture, HydratedWorldReproducesGoldenFiguresOwned) {
    const auto path = temp_file();
    write_image(image(), path);
    const auto b = snapshot::bundle::open(path.string(), snapshot::load_mode::owned);
    EXPECT_EQ(b->mode(), snapshot::load_mode::owned);
    const auto hydrated = snapshot::hydrate_world(b);
    expect_golden_figures(hydrated, "owned");
    std::filesystem::remove(path);
}

TEST_F(SnapshotFixture, HydratedWorldReproducesGoldenFiguresMapped) {
    const auto path = temp_file();
    write_image(image(), path);
    const auto b = snapshot::bundle::open(path.string(), snapshot::load_mode::mapped);
    const auto hydrated = snapshot::hydrate_world(b, /*threads_override=*/2);
    expect_golden_figures(hydrated, "mapped");
    std::filesystem::remove(path);
}

/// A hydrated column's values equal the live world's column bit for bit
/// (doubles included).
template <typename T>
void expect_same_values(const std::string& name, const table::column<T>& hydrated,
                        const table::column<T>& live) {
    EXPECT_EQ(hydrated.size(), live.size()) << name;
    if (hydrated.size() == live.size() && !live.empty()) {
        EXPECT_EQ(std::memcmp(hydrated.view().data(), live.view().data(),
                              live.size() * sizeof(T)),
                  0)
            << name;
    }
}

/// One hydrated server log column against its section and the live world's
/// column: a plain section stays a borrowed span aliasing the bundle's bytes,
/// an encoded section keeps its non-plain tag in the file and hydrates into
/// an owning column. Either way the values equal the live column's. Returns
/// whether the section was encoded.
template <typename T>
bool expect_hydrated_column(const snapshot::bundle& b, const std::string& name,
                            const table::column<T>& hydrated, const table::column<T>& live) {
    const auto& info = b.section(name);
    const bool encoded = info.encoding != table::enc::encoding::plain;
    if (encoded) {
        EXPECT_TRUE(hydrated.owns()) << name;
    } else {
        EXPECT_FALSE(hydrated.owns()) << name;
        EXPECT_EQ(hydrated.storage_origin(), static_cast<const void*>(b.raw(name).data()))
            << name;
    }
    expect_same_values(name, hydrated, live);
    return encoded;
}

/// A filtered table column of a hydrated world: the `filter` stage re-ran
/// over the restored captures, so the column is owned and equals the live
/// world's.
template <typename T>
void expect_filtered_column(const std::string& name, const table::column<T>& hydrated,
                            const table::column<T>& live) {
    EXPECT_TRUE(hydrated.owns()) << name;
    expect_same_values(name, hydrated, live);
}

TEST_F(SnapshotFixture, MappedColumnsAreZeroCopy) {
#if defined(__unix__) || defined(__APPLE__)
    const auto path = temp_file();
    write_image(image(), path);
    const auto b = snapshot::bundle::open(path.string(), snapshot::load_mode::mapped);
    ASSERT_EQ(b->mode(), snapshot::load_mode::mapped);
    const auto hydrated = snapshot::hydrate_world(b);

    // Plain sections alias the mapping.
    const auto total = b->typed_column<double>("pop/cdn/total");
    EXPECT_FALSE(total.owns());
    EXPECT_EQ(total.storage_origin(), static_cast<const void*>(b->raw("pop/cdn/total").data()));

    // Every filtered table column: recomputed on load, so owned, and equal
    // to the live world's. The snapshot stores no table section.
    ASSERT_EQ(hydrated.filtered_tables().size(), w().filtered_tables().size());
    for (std::size_t i = 0; i < w().filtered_tables().size(); ++i) {
        const auto& got = hydrated.filtered_tables()[i];
        const auto& want = w().filtered_tables()[i];
        const std::string prefix = "letter " + std::to_string(i) + " ";
        expect_filtered_column(prefix + "source_ip", got.source_ip, want.source_ip);
        expect_filtered_column(prefix + "site", got.site, want.site);
        expect_filtered_column(prefix + "category", got.category, want.category);
        expect_filtered_column(prefix + "qpd", got.queries_per_day, want.queries_per_day);
        expect_filtered_column(prefix + "tcp_key", got.tcp_key, want.tcp_key);
        expect_filtered_column(prefix + "tcp_median", got.tcp_median_rtt_ms,
                               want.tcp_median_rtt_ms);
        EXPECT_EQ(got.spec.strategy, want.spec.strategy) << prefix;
    }
    for (const auto& s : b->sections()) {
        EXPECT_FALSE(s.name.starts_with("tables/")) << s.name;
    }

    // Every server log column, section by section: encoded sections decode
    // on load into owning columns, plain ones alias the mapping.
    std::size_t encoded = 0;
    std::size_t columns = 0;
    const auto check = [&](const std::string& name, const auto& got, const auto& want) {
        encoded += expect_hydrated_column(*b, name, got, want) ? 1 : 0;
        ++columns;
    };
    const auto& got = hydrated.server_log_table();
    const auto& want = w().server_log_table();
    check("server/asn", got.asn, want.asn);
    check("server/region", got.region, want.region);
    check("server/ring", got.ring, want.ring);
    check("server/front_end", got.front_end, want.front_end);
    check("server/median_rtt_ms", got.median_rtt_ms, want.median_rtt_ms);
    check("server/samples", got.sample_count, want.sample_count);
    check("server/users", got.users, want.users);
    check("server/front_end_km", got.front_end_km, want.front_end_km);

    EXPECT_NE(b->section("server/median_rtt_ms").encoding, table::enc::encoding::plain);
    EXPECT_GT(encoded, 0u);
    EXPECT_EQ(columns, 8u);
    std::filesystem::remove(path);
#else
    GTEST_SKIP() << "no mmap on this platform";
#endif
}

TEST_F(SnapshotFixture, MappedAndOwnedSeeIdenticalBytes) {
    const auto path = temp_file();
    write_image(image(), path);
    const auto owned = snapshot::bundle::open(path.string(), snapshot::load_mode::owned);
    const auto mapped = snapshot::bundle::open(path.string(), snapshot::load_mode::mapped);
    ASSERT_EQ(owned->file_bytes(), mapped->file_bytes());
    ASSERT_EQ(owned->sections().size(), mapped->sections().size());
    for (const auto& s : owned->sections()) {
        const auto a = owned->raw(s.name);
        const auto b = mapped->raw(s.name);
        ASSERT_EQ(a.size(), b.size()) << s.name;
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0) << s.name;
    }
    std::filesystem::remove(path);
}

TEST_F(SnapshotFixture, HydratedDatasetsMatchLive) {
    const auto b = snapshot::bundle::from_bytes(image());
    const auto hydrated = snapshot::hydrate_world(b);
    ASSERT_EQ(hydrated.ditl().letters.size(), w().ditl().letters.size());
    for (std::size_t i = 0; i < w().ditl().letters.size(); ++i) {
        EXPECT_EQ(hydrated.ditl().letters[i].records.size(),
                  w().ditl().letters[i].records.size());
        EXPECT_EQ(hydrated.ditl().letters[i].tcp_rtts.size(),
                  w().ditl().letters[i].tcp_rtts.size());
    }
    EXPECT_EQ(hydrated.server_log_table().rows(), w().server_log_table().rows());
    EXPECT_EQ(hydrated.client_measurements().size(), w().client_measurements().size());
    EXPECT_EQ(hydrated.space().allocated_slash24s(), w().space().allocated_slash24s());
    EXPECT_EQ(hydrated.cdn_user_counts().total_observed_users(),
              w().cdn_user_counts().total_observed_users());
    EXPECT_EQ(hydrated.apnic_user_counts().as_count(), w().apnic_user_counts().as_count());
    // The captures carry the full spec, strategy included, and the filter
    // copies it into the tables it recomputes.
    for (std::size_t i = 0; i < w().ditl().letters.size(); ++i) {
        EXPECT_EQ(hydrated.ditl().letters[i].spec.strategy,
                  w().ditl().letters[i].spec.strategy);
    }
    ASSERT_EQ(hydrated.filtered_tables().size(), w().filtered_tables().size());
    for (std::size_t i = 0; i < w().filtered_tables().size(); ++i) {
        EXPECT_EQ(hydrated.filtered_tables()[i].spec.strategy,
                  w().filtered_tables()[i].spec.strategy);
    }
}

TEST_F(SnapshotFixture, SnapshotBytesIdenticalAcrossThreadCounts) {
    // The determinism contract end-to-end: the thread count is an execution
    // knob (not serialized), and every dataset is byte-identical at any
    // thread count, so the container files are too.
    auto serial_config = core::world_config::small();
    serial_config.threads = 1;
    const core::world serial{std::move(serial_config)};
    auto parallel_config = core::world_config::small();
    parallel_config.threads = 8;
    const core::world parallel{std::move(parallel_config)};
    EXPECT_EQ(snapshot::encode_world(serial), snapshot::encode_world(parallel));
    // And a hydrated world re-encodes to the same bytes it was loaded from.
    const auto rehydrated =
        snapshot::hydrate_world(snapshot::bundle::from_bytes(image()));
    EXPECT_EQ(snapshot::encode_world(rehydrated), image());
}

TEST_F(SnapshotFixture, V1ContainerRoundTripsAndV2Shrinks) {
    // A v1 writer reproduces the original all-plain 64-byte-aligned format…
    const auto v1 = snapshot::encode_world(w(), 1);
    const auto b = snapshot::bundle::from_bytes(v1);
    EXPECT_EQ(b->container_version(), 1u);
    for (const auto& s : b->sections()) {
        EXPECT_EQ(s.encoding, table::enc::encoding::plain) << s.name;
        EXPECT_EQ(s.payload_offset % snapshot::payload_alignment, 0u) << s.name;
    }
    // …that still hydrates, and re-encodes at the default version to the
    // exact image a live world produces (backward-compat reads are lossless).
    const auto hydrated = snapshot::hydrate_world(b);
    EXPECT_EQ(snapshot::encode_world(hydrated), image());
    // The headline: the encoded v2 container is smaller. Both versions hold
    // the same sections; at seed 42 the small world measures 1,181,856 bytes
    // in v1 and 698,536 in v2, a ratio of 1.69.
    EXPECT_GE(v1.size() * 100, 169 * image().size())
        << "v1 " << v1.size() << " bytes vs v2 " << image().size();
}

TEST_F(SnapshotFixture, HydratedV1WorldReproducesGoldenFigures) {
    const auto v1 = snapshot::encode_world(w(), 1);
    const auto hydrated = snapshot::hydrate_world(snapshot::bundle::from_bytes(v1));
    expect_golden_figures(hydrated, "v1");
}

TEST_F(SnapshotFixture, HydrateRejectsDitlOnlySnapshot) {
    const auto ditl_image = snapshot::encode_ditl(w().ditl());
    const auto b = snapshot::bundle::from_bytes(ditl_image);
    EXPECT_FALSE(snapshot::has_world(*b));
    try {
        (void)snapshot::hydrate_world(b);
        FAIL() << "section_missing expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::section_missing);
    }
}

// ------------------------------------------------------------- corruption --

TEST_F(SnapshotFixture, EveryFlippedSectionByteIsCaught) {
    const auto b = snapshot::bundle::from_bytes(image());
    for (const auto& s : b->sections()) {
        if (s.payload_bytes == 0) continue;
        // First payload byte, last payload byte, and the padding byte just
        // before the section (covered by the whole-file checksum).
        for (const std::uint64_t at :
             {s.payload_offset, s.payload_offset + s.payload_bytes - 1,
              s.payload_offset - 1}) {
            auto corrupt = image();
            corrupt[at] ^= std::byte{0x40};
            EXPECT_EQ(code_of(corrupt), snapshot::errc::checksum_mismatch)
                << s.name << " flip at " << at;
        }
    }
}

TEST_F(SnapshotFixture, V1NonzeroEncodingFieldIsMalformed) {
    // The v2 entry bytes ([9, 12): encoding tag + reserved u16) must be zero
    // in a v1 file; a nonzero value is a structural error, not a checksum
    // one, so the file checksum is re-patched to let the gate fire.
    for (const std::size_t at : {9, 10, 11}) {
        auto corrupt = snapshot::encode_world(w(), 1);
        corrupt[snapshot::header_bytes + at] = std::byte{1};
        patch_file_checksum(corrupt);
        EXPECT_EQ(code_of(corrupt), snapshot::errc::malformed) << "entry byte " << at;
    }
}

TEST_F(SnapshotFixture, BadEncodingHeadersAreTyped) {
    // Sabotage the bit-width byte inside every encoded section's payload
    // header (0xff is invalid for every encoding) with both checksums
    // re-patched: only the open-time encoding validation can catch it.
    const auto b = snapshot::bundle::from_bytes(image());
    std::size_t tested = 0;
    for (const auto& s : b->sections()) {
        if (s.encoding == table::enc::encoding::plain) continue;
        auto corrupt = image();
        corrupt[s.payload_offset + 4] = std::byte{0xff};
        patch_section_checksums(corrupt, s.payload_offset);
        patch_file_checksum(corrupt);
        EXPECT_EQ(code_of(corrupt), snapshot::errc::bad_encoding) << s.name;
        ++tested;
    }
    EXPECT_GT(tested, 0u) << "world image has no encoded sections";
}

TEST_F(SnapshotFixture, EncodedPayloadCorruptionIsTyped) {
    // Flipping bytes inside the packed data (past the header) must also be
    // caught by the open-time validation or fail closed with a checksum
    // mismatch — never parse into an out-of-range view.
    const auto b = snapshot::bundle::from_bytes(image());
    for (const auto& s : b->sections()) {
        if (s.encoding == table::enc::encoding::plain) continue;
        if (s.payload_bytes < 17) continue;
        auto corrupt = image();
        corrupt[s.payload_offset + 16] ^= std::byte{0xff};
        patch_section_checksums(corrupt, s.payload_offset);
        patch_file_checksum(corrupt);
        try {
            const auto parsed = snapshot::bundle::from_bytes(corrupt);
            // A flip that survives validation decoded to different values;
            // the view must still be in range (scanning must not crash).
            for (const auto& ps : parsed->sections()) {
                ASSERT_LE(ps.payload_offset + ps.payload_bytes, corrupt.size());
            }
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_TRUE(e.code() == snapshot::errc::bad_encoding ||
                        e.code() == snapshot::errc::checksum_mismatch)
                << s.name << ": " << e.what();
        }
    }
}

TEST_F(SnapshotFixture, RetiredEncodingTagAndReservedEntryBytesAreTyped) {
    // Encoding tag 4 (the retired cross-reference encoding) is unknown, and
    // entry bytes [10, 12), which once held its source index, are reserved:
    // either on any section of a v2 file is bad_encoding.
    const auto b = snapshot::bundle::from_bytes(image());
    ASSERT_EQ(table::enc::max_encoding_tag, 3);
    std::size_t tested = 0;
    for (std::size_t i = 0; i < b->sections().size(); ++i) {
        const auto& s = b->sections()[i];
        const std::size_t entry = snapshot::header_bytes + snapshot::section_entry_bytes * i;
        // The first section (plain) and every encoded section.
        if (i != 0 && s.encoding != table::enc::encoding::dict &&
            s.encoding != table::enc::encoding::rle &&
            s.encoding != table::enc::encoding::delta) {
            continue;
        }
        auto tagged = image();
        tagged[entry + 9] = std::byte{4};
        patch_file_checksum(tagged);
        EXPECT_EQ(code_of(tagged), snapshot::errc::bad_encoding) << s.name << " tag 4";
        for (const std::size_t at : {10, 11}) {
            auto reserved = image();
            reserved[entry + at] = std::byte{1};
            patch_file_checksum(reserved);
            EXPECT_EQ(code_of(reserved), snapshot::errc::bad_encoding)
                << s.name << " entry byte " << at;
        }
        ++tested;
    }
    EXPECT_GE(tested, 4u);
}

/// The small world's sections as a container of the previous layout would
/// hold them: `ditl/<i>/meta` without the strategy byte that follows the
/// letter, and the filtered tables stored again as plain `tables/*`
/// sections after the captures. Sections are copied plain from the v1
/// image into a writer of `version`.
std::vector<std::byte> previous_layout_image(const core::world& world, std::uint32_t version) {
    const auto source = snapshot::bundle::from_bytes(snapshot::encode_world(world, 1));
    snapshot::writer wr{version};
    const auto copy = [&](const snapshot::bundle::section_info& s) {
        const std::string name{s.name};
        const auto column = [&]<typename T>(T) { wr.add_column(name, source->column<T>(name)); };
        switch (s.type) {
            case snapshot::elem_type::raw: {
                const auto bytes = source->raw(name);
                wr.add_raw(name, bytes.data(), bytes.size(), s.elem_size);
                break;
            }
            case snapshot::elem_type::u8: column(std::uint8_t{}); break;
            case snapshot::elem_type::u32: column(std::uint32_t{}); break;
            case snapshot::elem_type::u64: column(std::uint64_t{}); break;
            case snapshot::elem_type::i32: column(std::int32_t{}); break;
            case snapshot::elem_type::i64: column(std::int64_t{}); break;
            case snapshot::elem_type::f64: column(double{}); break;
        }
    };
    const auto tables = world.filtered_tables();
    for (const auto& s : source->sections()) {
        if (s.name == "server/asn") {
            // The previous layout wrote the tables right before the server log.
            wr.add_scalar<std::uint32_t>("tables/letter_count",
                                         static_cast<std::uint32_t>(tables.size()));
            for (std::size_t i = 0; i < tables.size(); ++i) {
                const auto& t = tables[i];
                const std::string prefix = "tables/" + std::to_string(i) + "/";
                // Its table meta was the letter, strategy and spec: today's
                // ditl meta without the trailing IPv6 volume.
                const auto meta = source->raw("ditl/" + std::to_string(i) + "/meta");
                wr.add_raw(prefix + "meta", meta.data(), meta.size() - 8,
                           static_cast<std::uint32_t>(meta.size() - 8));
                std::vector<std::uint8_t> category;
                for (const auto c : t.category.view()) {
                    category.push_back(static_cast<std::uint8_t>(c));
                }
                wr.add_column(prefix + "source_ip", t.source_ip.view());
                wr.add_column(prefix + "site", t.site.view());
                wr.add_column<std::uint8_t>(prefix + "category", category);
                wr.add_column(prefix + "qpd", t.queries_per_day.view());
                wr.add_column(prefix + "tcp_key", t.tcp_key.view());
                wr.add_column(prefix + "tcp_median", t.tcp_median_rtt_ms.view());
            }
        }
        if (s.name.starts_with("ditl/") && s.name.ends_with("/meta")) {
            const auto meta = source->raw(s.name);
            std::vector<std::byte> old{meta.begin(), meta.end()};
            old.erase(old.begin() + 1);
            wr.add_raw(std::string{s.name}, old.data(), old.size(),
                       static_cast<std::uint32_t>(old.size()));
            continue;
        }
        copy(s);
    }
    return wr.finish();
}

TEST_F(SnapshotFixture, PreviousLayoutWorldImageIsTyped) {
    // A v1 file of the previous layout is structurally valid, but its
    // capture metadata is one byte short of today's schema: hydrating it
    // fails typed, never as a misparse.
    const auto v1 = snapshot::bundle::from_bytes(previous_layout_image(w(), 1));
    ASSERT_TRUE(v1->has("tables/0/source_ip"));
    try {
        (void)snapshot::hydrate_world(v1);
        FAIL() << "malformed expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::malformed) << e.what();
    }

    // A v2 file of the previous layout stored the per-row table columns as
    // cross-references (tag 4, source index in entry bytes [10, 12)) into
    // the captures: opening it fails at the unknown tag.
    auto v2 = previous_layout_image(w(), 2);
    const auto plain = snapshot::bundle::from_bytes(v2);
    std::size_t xref = plain->sections().size();
    std::size_t source = plain->sections().size();
    for (std::size_t i = 0; i < plain->sections().size(); ++i) {
        if (plain->sections()[i].name == "tables/0/source_ip") xref = i;
        if (plain->sections()[i].name == "ditl/0/rec/source_ip") source = i;
    }
    ASSERT_LT(xref, plain->sections().size());
    ASSERT_LT(source, xref);
    std::byte* entry = v2.data() + snapshot::header_bytes + snapshot::section_entry_bytes * xref;
    entry[9] = std::byte{4};
    const auto index = static_cast<std::uint16_t>(source);
    std::memcpy(entry + 10, &index, sizeof index);
    patch_file_checksum(v2);
    EXPECT_EQ(code_of(v2), snapshot::errc::bad_encoding);
}

TEST_F(SnapshotFixture, TruncationsAreTyped) {
    const auto& img = image();
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{10}, snapshot::header_bytes - 1,
          snapshot::header_bytes, img.size() / 2, img.size() - 1}) {
        std::vector<std::byte> cut{img.begin(), img.begin() + static_cast<long>(keep)};
        EXPECT_EQ(code_of(cut), snapshot::errc::truncated) << "kept " << keep;
    }
}

// -------------------------------------------------- packed-section contents
// Section checksums are easy to recompute (the writer does it), so the
// readers must bound every length and count they take from a file before
// allocating for it.

TEST_F(SnapshotFixture, DeclaredStringLengthIsCheckedBeforeAllocating) {
    auto config = core::world_config::small();
    config.cdn.name = "name-marker";
    auto bytes = snapshot::encode_config(config);
    const std::string_view marker{config.cdn.name};
    const auto* text = reinterpret_cast<const char*>(bytes.data());
    const auto at = std::string_view{text, bytes.size()}.find(marker);
    ASSERT_NE(at, std::string_view::npos);
    ASSERT_GE(at, 4u);
    // 4 GiB declared, a few hundred bytes present.
    const std::uint32_t declared = 0xFFFFFFFF;
    std::memcpy(bytes.data() + at - 4, &declared, sizeof declared);
    snapshot::writer wr;
    wr.add_raw("world/config", bytes.data(), bytes.size());
    const auto b = snapshot::bundle::from_bytes(wr.finish());
    try {
        (void)snapshot::read_config(*b);
        FAIL() << "malformed expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::malformed) << e.what();
    }
}

TEST_F(SnapshotFixture, EncodedRowCountIsBoundedBeforeDecoding) {
    // A width-0 dict and a two-run rle section of u64 each claim 2^25 rows
    // (256 MiB decoded) in a payload of a few dozen bytes. Opening must fail
    // typed, at the decode bound, before anything is reserved.
    constexpr std::uint32_t claimed = std::uint32_t{1} << 25;
    std::vector<std::uint64_t> constant(64, 7);
    std::vector<std::uint64_t> two_runs(64, 5);
    std::fill(two_runs.begin() + 32, two_runs.end(), 9);
    for (const auto* values : {&constant, &two_runs}) {
        snapshot::writer wr;
        wr.add_column_encoded<std::uint64_t>("col", *values);
        auto img = wr.finish();
        const auto clean = snapshot::bundle::from_bytes(img);
        const auto info = clean->section("col");
        ASSERT_EQ(clean->typed_column<std::uint64_t>("col").size(), values->size());
        const std::size_t at = info.payload_offset;
        std::memcpy(img.data() + at, &claimed, sizeof claimed);
        if (info.encoding == table::enc::encoding::rle) {
            // The last run end must still equal the row count: [16, 32) are
            // the two run values, [32, 40) the two u32 run ends.
            std::memcpy(img.data() + at + 36, &claimed, sizeof claimed);
        } else {
            ASSERT_EQ(info.encoding, table::enc::encoding::dict);
            ASSERT_EQ(img.size(), 144u);
        }
        patch_section_checksums(img, at);
        patch_file_checksum(img);

        rusage before{};
        getrusage(RUSAGE_SELF, &before);
        try {
            const auto b = snapshot::bundle::from_bytes(img);
            (void)b->typed_column<std::uint64_t>("col");
            ADD_FAILURE() << "bad_encoding expected for "
                          << table::enc::encoding_name(info.encoding);
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_EQ(e.code(), snapshot::errc::bad_encoding) << e.what();
        }
        rusage after{};
        getrusage(RUSAGE_SELF, &after);
        // ru_maxrss is in KiB on Linux; 256 MiB decoded would show.
        EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024)
            << table::enc::encoding_name(info.encoding);
    }
}

TEST_F(SnapshotFixture, DitlLetterCountPastStoredLettersIsTyped) {
    snapshot::writer wr;
    wr.add_scalar<std::uint32_t>("ditl/letter_count", 0xFFFFFFFF);
    const auto b = snapshot::bundle::from_bytes(wr.finish());
    try {
        (void)snapshot::read_ditl(*b);
        FAIL() << "section_missing expected";
    } catch (const snapshot::snapshot_error& e) {
        EXPECT_EQ(e.code(), snapshot::errc::section_missing) << e.what();
    }
}

TEST_F(SnapshotFixture, BadMagicIsTyped) {
    auto corrupt = image();
    corrupt[0] = std::byte{'Z'};
    EXPECT_EQ(code_of(corrupt), snapshot::errc::bad_magic);
}

TEST_F(SnapshotFixture, FutureVersionIsTyped) {
    auto corrupt = image();
    // Version field lives at offset 8; bump it without fixing the checksum —
    // the version check must fire first with a typed error.
    const std::uint32_t future = snapshot::format_version + 1;
    std::memcpy(corrupt.data() + 8, &future, sizeof future);
    EXPECT_EQ(code_of(corrupt), snapshot::errc::version_mismatch);
}

TEST_F(SnapshotFixture, ZeroSectionFileIsMalformed) {
    const snapshot::writer empty;
    EXPECT_EQ(code_of(empty.finish()), snapshot::errc::malformed);
}

TEST_F(SnapshotFixture, OpenMissingFileIsIoError) {
    for (const auto mode : {snapshot::load_mode::owned, snapshot::load_mode::mapped}) {
        try {
            (void)snapshot::bundle::open("/nonexistent/ac_snapshot.acx", mode);
            FAIL() << "io error expected";
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_EQ(e.code(), snapshot::errc::io);
        }
    }
}

TEST_F(SnapshotFixture, CorruptFileIsCaughtInBothModes) {
    auto corrupt = image();
    corrupt[corrupt.size() - 1] ^= std::byte{0x01};
    const auto path = temp_file();
    write_image(corrupt, path);
    for (const auto mode : {snapshot::load_mode::owned, snapshot::load_mode::mapped}) {
        try {
            (void)snapshot::bundle::open(path.string(), mode);
            FAIL() << "checksum_mismatch expected";
        } catch (const snapshot::snapshot_error& e) {
            EXPECT_EQ(e.code(), snapshot::errc::checksum_mismatch);
        }
    }
    std::filesystem::remove(path);
}

} // namespace
