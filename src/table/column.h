// Typed columnar storage: one contiguous array per attribute.
//
// The dataset-heavy layers (capture records, CDN telemetry, analysis
// intermediates) store their rows as structs-of-arrays built from these
// columns, so a pass that touches one attribute streams through memory
// instead of striding over wide row structs.
//
// A column is in one of two storage states:
//   * owned    — a vector, the default; mutable via reserve/push_back.
//   * borrowed — a read-only span over storage someone else keeps alive
//                (the snapshot reader hands out borrowed columns whose spans
//                point straight into a memory-mapped file).
// Both states are contiguous, so `view()` is always valid and every kernel
// takes spans. Encoded snapshot sections never reach this type encoded: the
// reader decodes them once, on load, into owned columns (snapshot.h).
// Borrowed columns are read-only; the borrower is responsible for the
// backing storage outliving the column (snapshot::bundle retains its
// mapping, and worlds hydrated from a bundle retain the bundle).
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace ac::table {

/// One typed column. T is any trivially copyable scalar: u32/u64/f64, an
/// enum, or a small id type.
template <typename T>
class column {
public:
    using value_type = T;

    column() = default;
    explicit column(std::vector<T> values) : values_(std::move(values)) {}

    /// A non-owning column over externally kept storage (e.g. an mmap'd
    /// snapshot section). Mutation is a contract violation (asserted).
    [[nodiscard]] static column borrowed(std::span<const T> view) {
        column c;
        c.borrow_ = view;
        return c;
    }

    /// False when the column views external storage.
    [[nodiscard]] bool owns() const noexcept { return borrow_.data() == nullptr; }

    void reserve(std::size_t n) {
        assert(owns());
        values_.reserve(n);
    }
    void push_back(T v) {
        assert(owns());
        values_.push_back(v);
    }

    [[nodiscard]] std::size_t size() const noexcept { return view().size(); }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] T operator[](std::size_t i) const noexcept { return view()[i]; }

    /// Zero-copy view over the contiguous values.
    [[nodiscard]] std::span<const T> view() const noexcept {
        return owns() ? std::span<const T>{values_} : borrow_;
    }

    /// First byte of the external storage backing this column (the mmap'd
    /// payload for borrowed columns) — lets tests pin the zero-copy contract
    /// by pointer identity. Null for owned columns.
    [[nodiscard]] const void* storage_origin() const noexcept {
        return owns() ? nullptr : static_cast<const void*>(borrow_.data());
    }

private:
    std::vector<T> values_;
    std::span<const T> borrow_{};
};

} // namespace ac::table
