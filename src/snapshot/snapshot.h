// Snapshot container I/O: a deterministic writer and a validating reader.
//
// The writer collects named, typed sections and assembles the container
// described in format.h. Assembly is serial and a pure function of the
// section contents, so two worlds with byte-identical datasets produce
// byte-identical snapshot files regardless of how many threads built them.
// A v2 writer (the default) may store a column section encoded
// (dict/rle/delta, chosen automatically by exact candidate sizes); a writer
// constructed with container version 1 reproduces the v1 format — all
// plain, 64-byte aligned — for backward-compat round trips.
//
// The reader (`bundle`) has two modes:
//   - owned:  reads the whole file into an aligned heap buffer — portable,
//             and the buffer's lifetime is the bundle's.
//   - mapped: mmaps the file read-only; plain column accessors return
//             spans into the mapping, so nothing is deserialized (falls back
//             to owned on platforms without mmap).
// Both modes verify the file checksum, every section checksum, and every
// encoding header (bounds, widths, code ranges) on open; all
// structural failures throw snapshot_error (format.h) — never UB. Encoded
// sections are validated on open and decoded once, when `typed_column` is
// asked for them, into an owning `table::column<T>`; plain sections come
// back borrowed, zero-copy. Either way a column is contiguous, so the
// analysis kernels have one code path.
//
// Bundles are immutable once opened and are created behind shared_ptr so
// borrowed columns (and worlds hydrated from them) can keep the backing
// bytes alive.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/snapshot/format.h"
#include "src/table/column.h"
#include "src/table/encoding.h"

namespace ac::snapshot {

/// Collects sections and assembles a snapshot file image.
class writer {
public:
    /// `container_version` 2 (default) enables encoded sections and 8-byte
    /// payload alignment; 1 writes the original all-plain 64-byte-aligned
    /// format.
    explicit writer(std::uint32_t container_version = format_version)
        : version_(container_version) {}

    /// Adds one section. Names must be unique; insertion order is the
    /// on-disk order (and therefore part of byte-identity).
    void add_raw(std::string name, const void* data, std::size_t bytes,
                 std::uint32_t elem_size = 1);

    template <typename T>
    void add_column(std::string name, std::span<const T> values) {
        add_typed(std::move(name), elem_tag<T>::value, values.data(), values.size_bytes(),
                  sizeof(T));
    }

    /// Adds a column section, automatically choosing the smallest encoding
    /// (plain/dict/rle/delta) by exact candidate sizes. On a v1 writer this
    /// degrades to a plain `add_column`. The choice is a pure function of
    /// the values, so re-encoding a decoded column is byte-identical.
    template <typename T>
    void add_column_encoded(std::string name, std::span<const T> values) {
        if (version_ < 2) {
            add_column(std::move(name), values);
            return;
        }
        const auto start = std::chrono::steady_clock::now();
        auto encoded = table::enc::choose_and_encode<T>(values);
        obs::registry::global().get_counter("snapshot.encode_ns")
            .add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
        if (encoded.kind == table::enc::encoding::plain) {
            add_column(std::move(name), values);
            return;
        }
        add_encoded(std::move(name), elem_tag<T>::value, sizeof(T), encoded.kind,
                    std::move(encoded.bytes));
    }

    /// Convenience for one-value sections (totals, counts).
    template <typename T>
    void add_scalar(std::string name, T value) {
        add_typed(std::move(name), elem_tag<T>::value, &value, sizeof value, sizeof value);
    }

    [[nodiscard]] std::size_t section_count() const noexcept { return sections_.size(); }

    /// Assembles the container: header, table, names, aligned payloads,
    /// checksums. Deterministic for identical section sequences.
    [[nodiscard]] std::vector<std::byte> finish() const;

    /// finish() + atomic-ish write to `path` (throws snapshot_error{errc::io}
    /// on failure).
    void write_file(const std::string& path) const;

private:
    struct pending_section {
        std::string name;
        elem_type type = elem_type::raw;
        std::uint32_t elem_size = 1;
        table::enc::encoding encoding = table::enc::encoding::plain;
        std::vector<std::byte> payload;
    };

    void add_typed(std::string name, elem_type type, const void* data, std::size_t bytes,
                   std::uint32_t elem_size);
    void add_encoded(std::string name, elem_type type, std::uint32_t elem_size,
                     table::enc::encoding encoding, std::vector<std::byte> payload);

    std::uint32_t version_ = format_version;
    std::vector<pending_section> sections_;
};

enum class load_mode : std::uint8_t {
    owned,   // read into an aligned heap buffer
    mapped,  // mmap read-only; spans point into the mapping
};

/// One opened snapshot. See file comment for modes and lifetime rules.
class bundle {
public:
    struct section_info {
        std::string_view name;  // points into the bundle's name blob
        elem_type type = elem_type::raw;
        std::uint32_t elem_size = 1;
        table::enc::encoding encoding = table::enc::encoding::plain;
        std::uint64_t rows = 0;            // decoded element count
        std::uint64_t payload_offset = 0;  // absolute file offset
        std::uint64_t payload_bytes = 0;
        std::uint64_t checksum = 0;
    };

    /// Opens and fully verifies a snapshot file. Throws snapshot_error on
    /// any structural or checksum failure.
    [[nodiscard]] static std::shared_ptr<const bundle> open(const std::string& path,
                                                            load_mode mode = load_mode::owned);

    /// Parses and verifies an in-memory image (the writer's finish() bytes);
    /// used by round-trip tests. The bundle copies the image.
    [[nodiscard]] static std::shared_ptr<const bundle> from_bytes(
        std::span<const std::byte> image);

    bundle(const bundle&) = delete;
    bundle& operator=(const bundle&) = delete;
    ~bundle();

    [[nodiscard]] load_mode mode() const noexcept { return mode_; }
    [[nodiscard]] std::size_t file_bytes() const noexcept { return size_; }
    [[nodiscard]] std::uint32_t container_version() const noexcept { return version_; }
    [[nodiscard]] const std::vector<section_info>& sections() const noexcept {
        return sections_;
    }

    [[nodiscard]] bool has(std::string_view name) const noexcept;

    /// The section's metadata; throws errc::section_missing if absent.
    [[nodiscard]] const section_info& section(std::string_view name) const;

    /// Typed zero-copy span of one *plain* section. Throws
    /// errc::section_missing, errc::type_mismatch (also for encoded
    /// sections, which have no contiguous values — `typed_column` decodes
    /// them).
    template <typename T>
    [[nodiscard]] std::span<const T> column(std::string_view name) const {
        const auto& s = section(name);
        if (s.type != elem_tag<T>::value) {
            throw snapshot_error(errc::type_mismatch,
                                 "section '" + std::string{name} + "' holds " +
                                     std::to_string(static_cast<int>(s.type)) +
                                     ", not the requested element type");
        }
        if (s.encoding != table::enc::encoding::plain) {
            throw snapshot_error(errc::type_mismatch,
                                 "section '" + std::string{name} +
                                     "' is encoded; use typed_column() to decode it");
        }
        return {reinterpret_cast<const T*>(data_ + s.payload_offset),
                s.payload_bytes / sizeof(T)};
    }

    /// Typed column over one section in any encoding: a plain section comes
    /// back borrowed (a span into the bundle's bytes), an encoded section is
    /// decoded here, once, into an owning column.
    template <typename T>
    [[nodiscard]] table::column<T> typed_column(std::string_view name) const {
        const std::size_t i = section_index(name);
        const section_info& s = sections_[i];
        if (s.type != elem_tag<T>::value) {
            throw snapshot_error(errc::type_mismatch,
                                 "section '" + std::string{name} + "' holds " +
                                     std::to_string(static_cast<int>(s.type)) +
                                     ", not the requested element type");
        }
        if (s.encoding == table::enc::encoding::plain) {
            return table::column<T>::borrowed(
                {reinterpret_cast<const T*>(data_ + s.payload_offset),
                 s.payload_bytes / sizeof(T)});
        }
        obs::span decode_span{"snapshot/decode"};
        decode_span.set_items(s.rows);
        return table::column<T>(views_[i].template decode<T>());
    }

    /// Raw bytes of one section (for packed record sections).
    [[nodiscard]] std::span<const std::byte> raw(std::string_view name) const;

    /// One value from a single-element section.
    template <typename T>
    [[nodiscard]] T scalar(std::string_view name) const {
        const auto values = column<T>(name);
        if (values.size() != 1) {
            throw snapshot_error(errc::malformed, "section '" + std::string{name} +
                                                      "' is not a single-value section");
        }
        return values[0];
    }

private:
    bundle() = default;
    void adopt(std::byte* data, std::size_t size, load_mode mode, bool mapped_region);
    void parse_and_verify();
    [[nodiscard]] std::size_t section_index(std::string_view name) const;

    const std::byte* data_ = nullptr;
    std::size_t size_ = 0;
    load_mode mode_ = load_mode::owned;
    bool mapped_region_ = false;  // data_ came from mmap (munmap on destroy)
    std::uint32_t version_ = format_version;
    std::vector<section_info> sections_;
    std::vector<table::enc::view_core> views_;  // validated per-section views
};

} // namespace ac::snapshot
