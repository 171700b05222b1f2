// The columnar table kernels: stable sorting, grouping, reductions, and the
// determinism contract the analyses build on.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <unordered_map>

#include "src/engine/thread_pool.h"
#include "src/netbase/rng.h"
#include "src/table/encoding.h"
#include "src/table/table.h"

namespace {

using namespace ac;

template <typename K>
std::vector<K> random_keys(std::size_t n, K modulus, std::uint64_t seed) {
    rand::rng gen{seed};
    std::vector<K> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        keys.push_back(static_cast<K>(gen.next() % modulus));
    }
    return keys;
}

TEST(SortPermutation, MatchesStableSortOnRandomU32) {
    const auto keys = random_keys<std::uint32_t>(5000, 1u << 20, 7);
    const auto radix = table::sort_permutation(std::span<const std::uint32_t>{keys});

    std::vector<table::row_index> reference(keys.size());
    std::iota(reference.begin(), reference.end(), table::row_index{0});
    std::stable_sort(reference.begin(), reference.end(),
                     [&](table::row_index a, table::row_index b) { return keys[a] < keys[b]; });
    EXPECT_EQ(radix, reference);
}

TEST(SortPermutation, MatchesStableSortOnRandomU64) {
    // Keys spread over high bytes too, so no byte pass is skipped.
    const auto keys = random_keys<std::uint64_t>(3000, ~0ull, 11);
    const auto radix = table::sort_permutation(std::span<const std::uint64_t>{keys});

    std::vector<table::row_index> reference(keys.size());
    std::iota(reference.begin(), reference.end(), table::row_index{0});
    std::stable_sort(reference.begin(), reference.end(),
                     [&](table::row_index a, table::row_index b) { return keys[a] < keys[b]; });
    EXPECT_EQ(radix, reference);
}

TEST(SortPermutation, StableOnHeavyDuplicates) {
    // 8 distinct keys over 2000 rows: equal keys must keep input order.
    const auto keys = random_keys<std::uint32_t>(2000, 8, 3);
    const auto perm = table::sort_permutation(std::span<const std::uint32_t>{keys});
    for (std::size_t i = 1; i < perm.size(); ++i) {
        ASSERT_LE(keys[perm[i - 1]], keys[perm[i]]);
        if (keys[perm[i - 1]] == keys[perm[i]]) {
            ASSERT_LT(perm[i - 1], perm[i]) << "equal keys out of input order at " << i;
        }
    }
}

TEST(SortPermutation, EmptyAndSingle) {
    const std::vector<std::uint32_t> empty;
    EXPECT_TRUE(table::sort_permutation(std::span<const std::uint32_t>{empty}).empty());
    const std::vector<std::uint32_t> one{42};
    EXPECT_EQ(table::sort_permutation(std::span<const std::uint32_t>{one}),
              std::vector<table::row_index>{0});
}

TEST(Gather, PermutesValues) {
    const std::vector<double> values{10.0, 20.0, 30.0};
    const std::vector<table::row_index> perm{2, 0, 1};
    EXPECT_EQ(table::gather(std::span<const double>{values}, perm),
              (std::vector<double>{30.0, 10.0, 20.0}));
}

TEST(Grouping, OffsetsCoverAllRowsInAscendingKeyOrder) {
    const auto keys = random_keys<std::uint32_t>(1000, 50, 5);
    const auto g = table::make_grouping(std::span<const std::uint32_t>{keys});

    std::size_t covered = 0;
    for (std::size_t i = 0; i < g.groups(); ++i) {
        if (i > 0) {
            EXPECT_LT(g.keys[i - 1], g.keys[i]);
        }
        const auto rows = g.rows(i);
        EXPECT_FALSE(rows.empty());
        for (const auto row : rows) EXPECT_EQ(keys[row], g.keys[i]);
        covered += rows.size();
    }
    EXPECT_EQ(covered, keys.size());
}

TEST(Grouping, SumByMatchesMapReference) {
    const auto keys = random_keys<std::uint32_t>(2000, 100, 13);
    rand::rng gen{17};
    std::vector<double> values;
    values.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) values.push_back(gen.uniform(0.0, 10.0));

    const auto g = table::make_grouping(std::span<const std::uint32_t>{keys});
    const auto sums = table::sum_by(g, std::span<const double>{values});

    // Row-order accumulation per key: bitwise, not just approximately.
    std::map<std::uint32_t, double> reference;
    for (std::size_t i = 0; i < keys.size(); ++i) reference[keys[i]] += values[i];
    ASSERT_EQ(sums.size(), reference.size());
    std::size_t i = 0;
    for (const auto& [key, total] : reference) {
        EXPECT_EQ(g.keys[i], key);
        EXPECT_DOUBLE_EQ(sums[i], total);
        ++i;
    }
}

TEST(Grouping, GroupReduceParallelMatchesSerial) {
    const auto keys = random_keys<std::uint32_t>(5000, 200, 23);
    rand::rng gen{29};
    std::vector<double> values;
    values.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) values.push_back(gen.uniform(0.0, 1.0));

    const auto g = table::make_grouping(std::span<const std::uint32_t>{keys});
    const auto reduce = [&](std::uint32_t key, std::span<const table::row_index> rows) {
        double total = static_cast<double>(key);
        for (const auto row : rows) total += values[row];
        return total;
    };

    const auto serial = table::group_reduce<double>(nullptr, g, reduce);
    engine::thread_pool pool{4};
    const auto parallel = table::group_reduce<double>(&pool, g, reduce);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "group " << i;  // bitwise
    }
}

TEST(DistinctCount, MatchesSetSemantics) {
    const auto keys = random_keys<std::uint32_t>(3000, 70, 31);
    std::unordered_map<std::uint32_t, int> seen;
    for (const auto k : keys) seen[k] = 1;
    EXPECT_EQ(table::distinct_count(std::span<const std::uint32_t>{keys}), seen.size());

    const std::vector<std::uint32_t> empty;
    EXPECT_EQ(table::distinct_count(std::span<const std::uint32_t>{empty}), 0u);
}

TEST(SortedLookup, FindsPresentKeysAndKeepsLastDuplicate) {
    const std::vector<std::uint64_t> keys{9, 3, 7, 3, 1};
    const std::vector<double> values{90.0, 30.0, 70.0, 33.0, 10.0};
    const table::sorted_lookup<std::uint64_t, double> lookup{
        std::span<const std::uint64_t>{keys}, std::span<const double>{values}};

    EXPECT_EQ(lookup.size(), 4u);
    ASSERT_NE(lookup.find(1), nullptr);
    EXPECT_DOUBLE_EQ(*lookup.find(1), 10.0);
    ASSERT_NE(lookup.find(3), nullptr);
    EXPECT_DOUBLE_EQ(*lookup.find(3), 33.0);  // last occurrence wins, as map[k] = v
    ASSERT_NE(lookup.find(9), nullptr);
    EXPECT_DOUBLE_EQ(*lookup.find(9), 90.0);
    EXPECT_EQ(lookup.find(2), nullptr);
    EXPECT_EQ(lookup.find(100), nullptr);
}

TEST(Column, PushAndView) {
    table::column<std::uint32_t> col;
    EXPECT_EQ(col.size(), 0u);
    col.reserve(3);
    col.push_back(5);
    col.push_back(6);
    EXPECT_EQ(col.size(), 2u);
    EXPECT_EQ(col[1], 6u);
    const auto view = col.view();
    ASSERT_EQ(view.size(), 2u);
    EXPECT_EQ(view[0], 5u);
}

// ------------------------------------------------------- encoded columns --

/// Encodes `values`, parses the payload back (through the same validating
/// parser the snapshot reader uses), and checks the load-time decoder
/// reproduces every value bit-for-bit.
template <typename T>
void expect_encoding_roundtrip(const std::vector<T>& values, const char* context) {
    const auto encoded =
        table::enc::choose_and_encode<T>(std::span<const T>{values});
    if (encoded.kind == table::enc::encoding::plain) return;  // nothing to decode
    EXPECT_LT(encoded.bytes.size(), values.size() * sizeof(T))
        << context << ": chosen encoding must beat plain";

    table::enc::view_core view;
    const auto err =
        table::enc::parse_view(encoded.kind, encoded.bytes, sizeof(T), values.size(), view);
    ASSERT_TRUE(err.empty()) << context << ": " << err;
    ASSERT_EQ(view.rows, values.size()) << context;

    const std::vector<T> decoded = view.decode<T>();
    ASSERT_EQ(decoded.size(), values.size()) << context;
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(std::memcmp(&decoded[i], &values[i], sizeof(T)), 0)
            << context << " (" << table::enc::encoding_name(encoded.kind)
            << ") decode at row " << i;
    }
}

/// Value shapes covering every encoding's sweet spot plus the cases meant to
/// fall back to plain, swept across block-boundary sizes.
template <typename T>
void run_encoding_shapes(std::uint64_t seed) {
    rand::rng gen{seed};
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{127}, std::size_t{128},
          std::size_t{129}, std::size_t{4096}}) {
        std::vector<T> constant(n, static_cast<T>(42));
        expect_encoding_roundtrip(constant, "constant");

        std::vector<T> low_card;
        std::vector<T> sorted;
        std::vector<T> runs;
        std::vector<T> high_card;
        for (std::size_t i = 0; i < n; ++i) {
            low_card.push_back(static_cast<T>(gen.next() % 7));
            sorted.push_back(static_cast<T>(i * 3 + (gen.next() % 3)));
            runs.push_back(static_cast<T>((i / 50) * 1000));
            high_card.push_back(static_cast<T>(gen.next()));
        }
        expect_encoding_roundtrip(low_card, "low-cardinality");
        expect_encoding_roundtrip(sorted, "sorted near-arithmetic");
        expect_encoding_roundtrip(runs, "long runs");
        expect_encoding_roundtrip(high_card, "high-cardinality");
    }
}

TEST(Encoding, RoundTripsAllShapesU32) { run_encoding_shapes<std::uint32_t>(101); }
TEST(Encoding, RoundTripsAllShapesU64) { run_encoding_shapes<std::uint64_t>(103); }
TEST(Encoding, RoundTripsAllShapesI64) { run_encoding_shapes<std::int64_t>(105); }

TEST(Encoding, RoundTripsDoublesBitwise) {
    // Doubles encode by bit pattern; -0.0, denormals and NaN payloads must
    // survive exactly.
    std::vector<double> values{0.0, -0.0, 1.5, 1.5, 1.5, 5e-324, -5e-324, 1e300};
    values.resize(300, 1.5);  // long tail run: rle candidate
    expect_encoding_roundtrip(values, "special doubles");

    rand::rng gen{107};
    std::vector<double> quantized;
    for (std::size_t i = 0; i < 1000; ++i) {
        quantized.push_back(static_cast<double>(gen.next() % 16) * 0.25);
    }
    expect_encoding_roundtrip(quantized, "quantized doubles");
}

TEST(Encoding, ChoosesExpectedKinds) {
    // The chooser is exact-size-driven; pin the obvious shapes so heuristic
    // regressions are visible.
    // Constant: dict and rle tie at 32 bytes; the smaller tag (dict) wins.
    const std::vector<std::uint32_t> constant(1000, 7);
    EXPECT_EQ(table::enc::choose_and_encode<std::uint32_t>(constant).kind,
              table::enc::encoding::dict);
    // Long runs of distinct values: rle beats the dict's per-row codes.
    std::vector<std::uint32_t> runs;
    for (std::uint32_t i = 0; i < 1000; ++i) runs.push_back((i / 50) * 1000);
    EXPECT_EQ(table::enc::choose_and_encode<std::uint32_t>(runs).kind,
              table::enc::encoding::rle);
    std::vector<std::uint32_t> arithmetic;
    for (std::uint32_t i = 0; i < 1000; ++i) arithmetic.push_back(1000000 + i);
    EXPECT_EQ(table::enc::choose_and_encode<std::uint32_t>(arithmetic).kind,
              table::enc::encoding::delta);
    rand::rng gen{109};
    std::vector<std::uint64_t> wide;
    for (std::size_t i = 0; i < 500; ++i) wide.push_back(gen.next());
    EXPECT_EQ(table::enc::choose_and_encode<std::uint64_t>(wide).kind,
              table::enc::encoding::plain);
}

TEST(Encoding, RejectsCorruptHeaders) {
    std::vector<std::uint32_t> values;
    for (std::uint32_t i = 0; i < 1000; ++i) values.push_back(i % 9);
    const auto encoded =
        table::enc::choose_and_encode<std::uint32_t>(std::span<const std::uint32_t>{values});
    ASSERT_NE(encoded.kind, table::enc::encoding::plain);
    table::enc::view_core core;
    ASSERT_EQ(table::enc::parse_view(encoded.kind, encoded.bytes, 4, values.size(), core), "");
    // A row count past the caller's bound is rejected before any row scan.
    EXPECT_EQ(table::enc::parse_view(encoded.kind, encoded.bytes, 4, values.size() - 1, core),
              "row count exceeds the decode bound");
    // Every single-byte flip inside the 16-byte header must be rejected or
    // still parse to in-range rows — never crash or index out of bounds.
    for (std::size_t at = 0; at < table::enc::header_bytes; ++at) {
        for (const auto flip : {std::byte{0x01}, std::byte{0x80}, std::byte{0xff}}) {
            auto corrupt = encoded.bytes;
            corrupt[at] ^= flip;
            table::enc::view_core out;
            const auto err =
                table::enc::parse_view(encoded.kind, corrupt, 4, values.size(), out);
            if (err.empty()) {
                // A flip may survive inside the 8-byte padding slack (e.g. a
                // row count nudged within the same packed size); survivors
                // must still decode fully in bounds (the asan lane enforces
                // it).
                EXPECT_EQ(out.decode<std::uint32_t>().size(), out.rows);
            }
        }
    }
    // Truncations at any boundary are rejected.
    for (const std::size_t keep : {std::size_t{0}, std::size_t{8}, std::size_t{15},
                                   std::size_t{16}, encoded.bytes.size() - 1}) {
        std::vector<std::byte> cut{encoded.bytes.begin(),
                                   encoded.bytes.begin() + static_cast<long>(keep)};
        table::enc::view_core out;
        EXPECT_FALSE(table::enc::parse_view(encoded.kind, cut, 4, values.size(), out).empty())
            << "kept " << keep;
    }
}

} // namespace
