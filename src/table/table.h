// Sort-based group-by kernels over columns.
//
// Every analysis in this repo is some flavour of "group rows by a key and
// reduce each group" (volume by /24, inflation by recursive, metrics by
// destination). Instead of one private `unordered_map` per module, the
// kernels here stable-sort a permutation of row indices by key and expose
// the resulting runs as groups, which buys three properties at once:
//
//   * determinism by construction — groups are visited in ascending key
//     order and rows within a group keep their original order, so outputs
//     (and floating-point accumulation order) are a pure function of the
//     input rows, never of a hash function or allocator;
//   * cache-friendliness — reductions stream through permuted contiguous
//     columns rather than chasing hash-table nodes;
//   * parallelism — groups are independent, so `group_reduce` fans them out
//     over the engine's pool into pre-sized slots, keeping the output
//     identical at any thread count.
//
// Unsigned-integer keys (the common case: /24 keys, packed composite keys,
// ASNs) sort through one serial stable LSD radix path that skips constant
// bytes; everything else falls back to std::stable_sort. The sort stays
// serial because a radix-partitioned sort over the pool measured slower on
// 4 cores (DESIGN.md §12).
//
// Kernels take spans; a `column<T>` passes its `view()` (columns are always
// contiguous, see column.h).
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "src/engine/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/table/column.h"

namespace ac::table {

using row_index = std::uint32_t;

namespace detail {

/// Rows-processed counter for the kernels, resolved once per process (the
/// registry lookup locks; kernel calls must stay lock-free).
inline obs::counter& kernel_rows_counter() {
    static obs::counter& c = obs::registry::global().get_counter("table.kernel_rows");
    return c;
}

/// Stable LSD radix sort of row indices by an unsigned-integer key column.
/// Bytes whose value is identical across all keys are skipped. Keys travel
/// with the permutation so every pass reads sequentially (the permuted
/// random-access gather would otherwise dominate).
template <std::unsigned_integral K>
[[nodiscard]] std::vector<row_index> radix_sort_permutation(std::span<const K> keys) {
    std::vector<row_index> perm(keys.size());
    std::iota(perm.begin(), perm.end(), row_index{0});
    if (keys.size() < 2) return perm;

    // All byte histograms in one sequential pass.
    std::array<std::array<std::size_t, 256>, sizeof(K)> counts{};
    for (const K key : keys) {
        for (std::size_t byte = 0; byte < sizeof(K); ++byte) {
            ++counts[byte][static_cast<std::size_t>((key >> (8 * byte)) & 0xffu)];
        }
    }

    std::vector<row_index> scratch(keys.size());
    std::vector<K> sorted_keys(keys.begin(), keys.end());
    std::vector<K> key_scratch(keys.size());
    for (std::size_t byte = 0; byte < sizeof(K); ++byte) {
        auto& count = counts[byte];
        // A byte that is constant across all keys cannot change the order.
        if (std::any_of(count.begin(), count.end(),
                        [&](std::size_t c) { return c == keys.size(); })) {
            continue;
        }
        const unsigned shift = static_cast<unsigned>(8 * byte);
        std::size_t offset = 0;
        for (auto& c : count) {
            const std::size_t next = offset + c;
            c = offset;
            offset = next;
        }
        for (std::size_t i = 0; i < sorted_keys.size(); ++i) {
            const K key = sorted_keys[i];
            const std::size_t slot = count[static_cast<std::size_t>((key >> shift) & 0xffu)]++;
            key_scratch[slot] = key;
            scratch[slot] = perm[i];
        }
        perm.swap(scratch);
        sorted_keys.swap(key_scratch);
    }
    return perm;
}

} // namespace detail

/// Stable permutation of row indices sorting `keys` ascending: rows with
/// equal keys keep their original relative order.
template <typename K>
[[nodiscard]] std::vector<row_index> sort_permutation(std::span<const K> keys) {
    obs::span sort_span{"table/sort_permutation"};
    sort_span.set_items(keys.size());
    detail::kernel_rows_counter().add(keys.size());
    if constexpr (std::unsigned_integral<K>) {
        return detail::radix_sort_permutation(keys);
    } else {
        std::vector<row_index> perm(keys.size());
        std::iota(perm.begin(), perm.end(), row_index{0});
        std::stable_sort(perm.begin(), perm.end(),
                         [&](row_index a, row_index b) { return keys[a] < keys[b]; });
        return perm;
    }
}

/// Materializes a permuted column: out[i] = values[perm[i]].
template <typename T>
[[nodiscard]] std::vector<T> gather(std::span<const T> values,
                                    std::span<const row_index> perm) {
    std::vector<T> out;
    out.reserve(perm.size());
    for (const row_index row : perm) out.push_back(values[row]);
    return out;
}

/// A sorted grouping of rows by key: group g covers the rows
/// order[offsets[g] .. offsets[g + 1]) and all of them carry keys[g].
/// Groups are in ascending key order; rows within a group keep input order.
template <typename K>
struct grouping {
    std::vector<row_index> order;    // all rows, stably sorted by key
    std::vector<K> keys;             // one ascending entry per group
    std::vector<row_index> offsets;  // keys.size() + 1 boundaries into order

    [[nodiscard]] std::size_t groups() const noexcept { return keys.size(); }
    [[nodiscard]] std::span<const row_index> rows(std::size_t g) const noexcept {
        return std::span<const row_index>{order}.subspan(offsets[g],
                                                         offsets[g + 1] - offsets[g]);
    }
};

template <typename K>
[[nodiscard]] grouping<K> make_grouping(std::span<const K> keys) {
    obs::span grouping_span{"table/make_grouping"};
    grouping_span.set_items(keys.size());
    grouping<K> g;
    g.order = sort_permutation(keys);
    if (g.order.empty()) {
        g.offsets.push_back(0);
        return g;
    }
    for (std::size_t i = 0; i < g.order.size(); ++i) {
        const K key = keys[g.order[i]];
        if (g.keys.empty() || key != g.keys.back()) {
            g.keys.push_back(key);
            g.offsets.push_back(static_cast<row_index>(i));
        }
    }
    g.offsets.push_back(static_cast<row_index>(g.order.size()));
    return g;
}

/// Parallel group-by: computes reduce(key, rows) for every group on the
/// pool (inline when `pool` is null or serial) and returns one R per group
/// in ascending key order. Each group writes a pre-sized slot, so the result
/// is identical at any thread count.
template <typename R, typename K, typename Fn>
[[nodiscard]] std::vector<R> group_reduce(engine::thread_pool* pool, const grouping<K>& g,
                                          Fn&& reduce) {
    obs::span reduce_span{"table/group_reduce"};
    reduce_span.set_items(g.groups());
    std::vector<R> out(g.groups());
    engine::parallel_over(pool, g.groups(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) out[i] = reduce(g.keys[i], g.rows(i));
    });
    return out;
}

/// Per-group sums of a value column, accumulated in stable row order
/// (bitwise-reproducible floating-point totals).
template <typename K>
[[nodiscard]] std::vector<double> sum_by(const grouping<K>& g,
                                         std::span<const double> values) {
    obs::span sum_span{"table/sum_by"};
    sum_span.set_items(g.order.size());
    std::vector<double> out;
    out.reserve(g.groups());
    for (std::size_t i = 0; i < g.groups(); ++i) {
        double total = 0.0;
        for (const row_index row : g.rows(i)) total += values[row];
        out.push_back(total);
    }
    return out;
}

/// Number of distinct keys in a column.
template <typename K>
[[nodiscard]] std::size_t distinct_count(std::span<const K> keys) {
    if (keys.empty()) return 0;
    const auto perm = sort_permutation(keys);
    std::size_t distinct = 1;
    for (std::size_t i = 1; i < perm.size(); ++i) {
        if (keys[perm[i]] != keys[perm[i - 1]]) ++distinct;
    }
    return distinct;
}

/// Binary-searched key -> value map over a pair of columns, replacing
/// lookup-only hash maps. Duplicate keys keep the *last* occurrence
/// (assignment semantics of `map[k] = v` row scans).
template <typename K, typename V>
class sorted_lookup {
public:
    sorted_lookup() = default;
    sorted_lookup(std::span<const K> keys, std::span<const V> values) {
        const auto g = make_grouping(keys);
        keys_.reserve(g.groups());
        values_.reserve(g.groups());
        for (std::size_t i = 0; i < g.groups(); ++i) {
            keys_.push_back(g.keys[i]);
            values_.push_back(values[g.rows(i).back()]);
        }
    }

    [[nodiscard]] const V* find(K key) const {
        const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
        if (it == keys_.end() || *it != key) return nullptr;
        return &values_[static_cast<std::size_t>(it - keys_.begin())];
    }

    [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

private:
    std::vector<K> keys_;
    std::vector<V> values_;
};

} // namespace ac::table
