// Snapshot container: round trips, hydration fidelity, corruption handling.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/report.h"
#include "src/snapshot/world_io.h"
#include "src/snapshot/xxhash64.h"

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

    static std::uint64_t fnv1a(const std::string& bytes) {
        std::uint64_t hash = 0xcbf29ce484222325ull;
        for (const unsigned char c : bytes) {
            hash ^= c;
            hash *= 0x100000001b3ull;
        }
        return hash;
    }

    /// The report_test.cpp goldens: a hydrated world must reproduce the same
    /// figure bytes a live build produces.
    static const std::map<std::string, std::uint64_t>& golden_checksums() {
        static const std::map<std::string, std::uint64_t> golden{
            {"fig02a_root_geographic_inflation.csv", 0xf89b2711a8752802ull},
            {"fig02b_root_latency_inflation.csv", 0x6a9c3423ad802dbdull},
            {"fig03_queries_per_user.csv", 0x3ece8f7160e524bcull},
            {"fig05a_cdn_geographic_inflation.csv", 0x5d7265254d591962ull},
            {"fig05b_cdn_latency_inflation.csv", 0xf9188357f8e7a56full},
            {"fig06a_as_path_lengths.csv", 0xe720d1e81e60ee21ull},
            {"fig07a_size_latency_efficiency.csv", 0xdc045b25c74e6a2bull},
            {"fig07b_coverage.csv", 0x8131c0bca505e0dcull},
        };
        return golden;
    }

    static void expect_golden_figures(const core::world& world, const std::string& context) {
        const auto dir = temp_dir("_" + context);
        const auto files = core::write_figure_csvs(world, dir.string());
        ASSERT_EQ(files.size(), golden_checksums().size()) << context;
        for (const auto& f : files) {
            const auto name = std::filesystem::path{f}.filename().string();
            const auto it = golden_checksums().find(name);
            ASSERT_NE(it, golden_checksums().end()) << name << " (" << context << ")";
            EXPECT_EQ(fnv1a(read_bytes(f)), it->second) << name << " (" << context << ")";
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

    /// Recomputes the stored checksum of every section whose payload starts
    /// at `payload_offset` (shared/deduped payloads have several entries).
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

/// One hydrated table column against its section and the live world's
/// column: a plain section stays a borrowed span aliasing the bundle's bytes,
/// an encoded section keeps its non-plain tag in the file and hydrates into
/// an owning column. Either way the values equal the live column's bit for
/// bit (doubles included). Returns whether the section was encoded.
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
    EXPECT_EQ(hydrated.size(), live.size()) << name;
    if (hydrated.size() == live.size() && !live.empty()) {
        EXPECT_EQ(std::memcmp(hydrated.view().data(), live.view().data(),
                              live.size() * sizeof(T)),
                  0)
            << name;
    }
    return encoded;
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

    // Every table column, section by section: encoded sections decode on
    // load into owning columns equal to the live world's.
    std::size_t encoded = 0;
    std::size_t columns = 0;
    const auto check = [&](const std::string& name, const auto& got, const auto& want) {
        encoded += expect_hydrated_column(*b, name, got, want) ? 1 : 0;
        ++columns;
    };
    ASSERT_EQ(hydrated.filtered_tables().size(), w().filtered_tables().size());
    for (std::size_t i = 0; i < w().filtered_tables().size(); ++i) {
        const auto& got = hydrated.filtered_tables()[i];
        const auto& want = w().filtered_tables()[i];
        const std::string prefix = "tables/" + std::to_string(i) + "/";
        check(prefix + "source_ip", got.source_ip, want.source_ip);
        check(prefix + "site", got.site, want.site);
        check(prefix + "category", got.category, want.category);
        check(prefix + "qpd", got.queries_per_day, want.queries_per_day);
        check(prefix + "tcp_key", got.tcp_key, want.tcp_key);
        check(prefix + "tcp_median", got.tcp_median_rtt_ms, want.tcp_median_rtt_ms);
    }
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

    EXPECT_NE(b->section("tables/0/source_ip").encoding, table::enc::encoding::plain);
    EXPECT_NE(b->section("server/median_rtt_ms").encoding, table::enc::encoding::plain);
    EXPECT_GT(encoded, 0u);
    EXPECT_EQ(columns, 6 * w().filtered_tables().size() + 8);
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
    // The filtered tables carry the full spec, strategy included.
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
    // The headline: the encoded v2 container is at least 2x smaller.
    EXPECT_GE(v1.size(), 2 * image().size())
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
    // The v2 entry bytes ([9, 12): encoding tag + xref source) must be zero
    // in a v1 file; a nonzero value is a structural error, not a checksum
    // one, so the file checksum is re-patched to let the gate fire.
    auto corrupt = snapshot::encode_world(w(), 1);
    corrupt[snapshot::header_bytes + 9] = std::byte{1};
    patch_file_checksum(corrupt);
    EXPECT_EQ(code_of(corrupt), snapshot::errc::malformed);
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

TEST_F(SnapshotFixture, NonXrefSourceIndexIsTyped) {
    // A nonzero xref-source entry field on a non-xref section is typed.
    const auto b = snapshot::bundle::from_bytes(image());
    for (std::size_t i = 0; i < b->sections().size(); ++i) {
        const auto& s = b->sections()[i];
        if (s.encoding != table::enc::encoding::dict) continue;
        auto corrupt = image();
        corrupt[snapshot::header_bytes + snapshot::section_entry_bytes * i + 10] =
            std::byte{1};
        patch_file_checksum(corrupt);
        EXPECT_EQ(code_of(corrupt), snapshot::errc::bad_encoding) << s.name;
        break;
    }
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

TEST_F(SnapshotFixture, TableLetterCountPastStoredLettersIsTyped) {
    snapshot::writer wr;
    wr.add_scalar<std::uint32_t>("tables/letter_count", 0xFFFFFFFF);
    const auto b = snapshot::bundle::from_bytes(wr.finish());
    try {
        (void)snapshot::read_letter_tables(*b);
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
