#include "src/snapshot/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <new>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/snapshot/xxhash64.h"

#if defined(__unix__) || defined(__APPLE__)
#define AC_SNAPSHOT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define AC_SNAPSHOT_HAS_MMAP 0
#endif

namespace ac::snapshot {

namespace {

constexpr std::uint64_t checksum_field_offset = 56;

std::size_t align_up(std::size_t n, std::size_t alignment) {
    return (n + alignment - 1) / alignment * alignment;
}

void put_u32(std::byte* at, std::uint32_t v) { std::memcpy(at, &v, sizeof v); }
void put_u64(std::byte* at, std::uint64_t v) { std::memcpy(at, &v, sizeof v); }

std::uint16_t get_u16(const std::byte* at) {
    std::uint16_t v;
    std::memcpy(&v, at, sizeof v);
    return v;
}
std::uint32_t get_u32(const std::byte* at) {
    std::uint32_t v;
    std::memcpy(&v, at, sizeof v);
    return v;
}
std::uint64_t get_u64(const std::byte* at) {
    std::uint64_t v;
    std::memcpy(&v, at, sizeof v);
    return v;
}

/// XXH64 over [0, 56) ++ [64, size) — everything except the checksum field
/// itself (and the 8 bytes of header padding it occupies through byte 63,
/// which are always zero and re-checked structurally).
std::uint64_t file_checksum(const std::byte* data, std::size_t size) {
    const std::uint64_t head = xxhash64(data, checksum_field_offset);
    return xxhash64(data + header_bytes, size - header_bytes, head);
}

bool valid_elem(elem_type t) {
    switch (t) {
        case elem_type::raw:
        case elem_type::u8:
        case elem_type::u32:
        case elem_type::u64:
        case elem_type::i32:
        case elem_type::i64:
        case elem_type::f64: return true;
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------- writer --

void writer::add_typed(std::string name, elem_type type, const void* data, std::size_t bytes,
                       std::uint32_t elem_size) {
    obs::span section_span{"snapshot/section_write"};
    section_span.set_items(bytes);
    obs::registry::global().get_counter("snapshot.sections_written").add(1);
    obs::registry::global().get_counter("snapshot.bytes_written").add(bytes);
    for (const auto& s : sections_) {
        if (s.name == name) {
            throw snapshot_error(errc::malformed, "duplicate section name '" + name + "'");
        }
    }
    pending_section section;
    section.name = std::move(name);
    section.type = type;
    section.elem_size = elem_size;
    section.payload.resize(bytes);
    if (bytes != 0) std::memcpy(section.payload.data(), data, bytes);
    sections_.push_back(std::move(section));
}

void writer::add_encoded(std::string name, elem_type type, std::uint32_t elem_size,
                         table::enc::encoding encoding, std::vector<std::byte> payload) {
    obs::span section_span{"snapshot/section_write"};
    section_span.set_items(payload.size());
    obs::registry::global().get_counter("snapshot.sections_written").add(1);
    obs::registry::global().get_counter("snapshot.bytes_written").add(payload.size());
    obs::registry::global().get_counter("snapshot.encoded_bytes_written").add(payload.size());
    for (const auto& s : sections_) {
        if (s.name == name) {
            throw snapshot_error(errc::malformed, "duplicate section name '" + name + "'");
        }
    }
    pending_section section;
    section.name = std::move(name);
    section.type = type;
    section.elem_size = elem_size;
    section.encoding = encoding;
    section.payload = std::move(payload);
    sections_.push_back(std::move(section));
}

void writer::add_raw(std::string name, const void* data, std::size_t bytes,
                     std::uint32_t elem_size) {
    add_typed(std::move(name), elem_type::raw, data, bytes, elem_size);
}

std::vector<std::byte> writer::finish() const {
    obs::span finish_span{"snapshot/finish"};
    finish_span.set_items(sections_.size());
    const std::size_t alignment = payload_alignment_for(version_);
    std::size_t names_bytes = 0;
    for (const auto& s : sections_) names_bytes += s.name.size();

    const std::size_t table_offset = header_bytes;
    const std::size_t names_offset = table_offset + sections_.size() * section_entry_bytes;
    const std::size_t first_payload = align_up(names_offset + names_bytes, alignment);

    // Lay out payloads, each in its own aligned file range.
    std::vector<std::size_t> payload_offsets(sections_.size());
    std::size_t total = first_payload;
    for (std::size_t i = 0; i < sections_.size(); ++i) {
        total = align_up(total, alignment);
        payload_offsets[i] = total;
        total += sections_[i].payload.size();
    }

    std::vector<std::byte> image(total, std::byte{0});

    std::memcpy(image.data(), magic, sizeof magic);
    put_u32(image.data() + 8, version_);
    put_u32(image.data() + 12, static_cast<std::uint32_t>(sections_.size()));
    put_u64(image.data() + 16, table_offset);
    put_u64(image.data() + 24, names_offset);
    put_u64(image.data() + 32, names_bytes);
    put_u64(image.data() + 40, first_payload);
    put_u64(image.data() + 48, total);

    std::size_t name_cursor = 0;
    for (std::size_t i = 0; i < sections_.size(); ++i) {
        const auto& s = sections_[i];
        std::byte* entry = image.data() + table_offset + i * section_entry_bytes;
        put_u32(entry + 0, static_cast<std::uint32_t>(name_cursor));
        put_u32(entry + 4, static_cast<std::uint32_t>(s.name.size()));
        entry[8] = static_cast<std::byte>(s.type);
        entry[9] = static_cast<std::byte>(s.encoding);  // always zero in v1
        // [10, 12) stay reserved (zero).
        put_u32(entry + 12, s.elem_size);
        put_u64(entry + 16, payload_offsets[i]);
        put_u64(entry + 24, s.payload.size());
        put_u64(entry + 32, xxhash64(s.payload.data(), s.payload.size()));

        std::memcpy(image.data() + names_offset + name_cursor, s.name.data(), s.name.size());
        name_cursor += s.name.size();
        if (!s.payload.empty()) {
            std::memcpy(image.data() + payload_offsets[i], s.payload.data(),
                        s.payload.size());
        }
    }

    put_u64(image.data() + checksum_field_offset, file_checksum(image.data(), image.size()));
    return image;
}

void writer::write_file(const std::string& path) const {
    obs::span file_span{"snapshot/write_file"};
    const auto image = finish();
    file_span.set_items(image.size());
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        throw snapshot_error(errc::io, "cannot open '" + path + "' for writing");
    }
    const std::size_t written = std::fwrite(image.data(), 1, image.size(), f);
    const int close_rc = std::fclose(f);
    if (written != image.size() || close_rc != 0) {
        std::remove(path.c_str());
        throw snapshot_error(errc::io, "short write to '" + path + "'");
    }
}

// ---------------------------------------------------------------- bundle --

namespace {

struct file_closer {
    void operator()(std::FILE* f) const noexcept {
        if (f != nullptr) std::fclose(f);
    }
};

std::byte* alloc_aligned(std::size_t bytes) {
    return static_cast<std::byte*>(
        ::operator new(bytes, std::align_val_t{payload_alignment}));
}

void free_aligned(std::byte* p) noexcept {
    ::operator delete(p, std::align_val_t{payload_alignment});
}

} // namespace

bundle::~bundle() {
    if (data_ == nullptr) return;
#if AC_SNAPSHOT_HAS_MMAP
    if (mapped_region_) {
        ::munmap(const_cast<std::byte*>(data_), size_);
        return;
    }
#endif
    free_aligned(const_cast<std::byte*>(data_));
}

void bundle::adopt(std::byte* data, std::size_t size, load_mode mode, bool mapped_region) {
    data_ = data;
    size_ = size;
    mode_ = mode;
    mapped_region_ = mapped_region;
}

std::shared_ptr<const bundle> bundle::open(const std::string& path, load_mode mode) {
    obs::span open_span{mode == load_mode::mapped ? "snapshot/open_mapped"
                                                  : "snapshot/open_owned"};
    auto b = std::shared_ptr<bundle>(new bundle());

#if AC_SNAPSHOT_HAS_MMAP
    if (mode == load_mode::mapped) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) throw snapshot_error(errc::io, "cannot open '" + path + "'");
        struct stat st{};
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            throw snapshot_error(errc::io, "cannot stat '" + path + "'");
        }
        const auto size = static_cast<std::size_t>(st.st_size);
        if (size == 0) {
            ::close(fd);
            throw snapshot_error(errc::truncated, "'" + path + "' is empty");
        }
        void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (map == MAP_FAILED) {
            throw snapshot_error(errc::io, "mmap of '" + path + "' failed");
        }
        b->adopt(static_cast<std::byte*>(map), size, load_mode::mapped, true);
        b->parse_and_verify();
        return b;
    }
#endif

    // Owned read (and the fallback when mmap is unavailable).
    std::unique_ptr<std::FILE, file_closer> f{std::fopen(path.c_str(), "rb")};
    if (f == nullptr) throw snapshot_error(errc::io, "cannot open '" + path + "'");
    if (std::fseek(f.get(), 0, SEEK_END) != 0) {
        throw snapshot_error(errc::io, "cannot seek '" + path + "'");
    }
    const long end = std::ftell(f.get());
    if (end < 0) throw snapshot_error(errc::io, "cannot size '" + path + "'");
    std::rewind(f.get());
    const auto size = static_cast<std::size_t>(end);
    std::byte* data = alloc_aligned(size == 0 ? 1 : size);
    const std::size_t got = size == 0 ? 0 : std::fread(data, 1, size, f.get());
    if (got != size) {
        free_aligned(data);
        throw snapshot_error(errc::io, "short read from '" + path + "'");
    }
    b->adopt(data, size, load_mode::owned, false);
    b->parse_and_verify();
    return b;
}

std::shared_ptr<const bundle> bundle::from_bytes(std::span<const std::byte> image) {
    auto b = std::shared_ptr<bundle>(new bundle());
    std::byte* data = alloc_aligned(image.empty() ? 1 : image.size());
    if (!image.empty()) std::memcpy(data, image.data(), image.size());
    b->adopt(data, image.size(), load_mode::owned, false);
    b->parse_and_verify();
    return b;
}

void bundle::parse_and_verify() {
    obs::span verify_span{"snapshot/parse_and_verify"};
    verify_span.set_items(size_);
    if (size_ < header_bytes) {
        throw snapshot_error(errc::truncated,
                             "file is " + std::to_string(size_) + " bytes, shorter than the " +
                                 std::to_string(header_bytes) + "-byte header");
    }
    if (std::memcmp(data_, magic, sizeof magic) != 0) {
        throw snapshot_error(errc::bad_magic, "not a snapshot file (magic mismatch)");
    }
    const std::uint32_t version = get_u32(data_ + 8);
    if (version > format_version) {
        throw snapshot_error(errc::version_mismatch,
                             "file is format v" + std::to_string(version) +
                                 ", this reader understands up to v" +
                                 std::to_string(format_version));
    }
    version_ = version;
    const std::size_t alignment = payload_alignment_for(version);
    const std::uint32_t count = get_u32(data_ + 12);
    const std::uint64_t table_offset = get_u64(data_ + 16);
    const std::uint64_t names_offset = get_u64(data_ + 24);
    const std::uint64_t names_bytes = get_u64(data_ + 32);
    const std::uint64_t first_payload = get_u64(data_ + 40);
    const std::uint64_t declared_size = get_u64(data_ + 48);

    if (declared_size != size_) {
        throw snapshot_error(errc::truncated,
                             "header declares " + std::to_string(declared_size) +
                                 " bytes but the file holds " + std::to_string(size_));
    }
    if (count == 0) {
        throw snapshot_error(errc::malformed, "zero-section snapshot");
    }
    const std::uint64_t table_bytes = std::uint64_t{count} * section_entry_bytes;
    if (table_offset != header_bytes || table_offset + table_bytes > size_ ||
        names_offset != table_offset + table_bytes || names_offset + names_bytes > size_ ||
        first_payload < names_offset + names_bytes || first_payload > size_ ||
        first_payload % alignment != 0) {
        throw snapshot_error(errc::malformed, "header layout fields are inconsistent");
    }

    if (file_checksum(data_, size_) != get_u64(data_ + checksum_field_offset)) {
        throw snapshot_error(errc::checksum_mismatch, "file checksum mismatch");
    }

    sections_.clear();
    sections_.reserve(count);
    views_.clear();
    views_.reserve(count);
    std::uint64_t decode_budget = max_decoded_bytes_per_file_byte * size_;
    const char* names = reinterpret_cast<const char*>(data_ + names_offset);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::byte* entry = data_ + table_offset + i * section_entry_bytes;
        const std::uint32_t name_off = get_u32(entry + 0);
        const std::uint32_t name_len = get_u32(entry + 4);
        const auto type = static_cast<elem_type>(entry[8]);
        const auto encoding_tag = static_cast<std::uint8_t>(entry[9]);
        const std::uint16_t reserved = get_u16(entry + 10);
        const std::uint32_t elem_size = get_u32(entry + 12);
        const std::uint64_t payload_offset = get_u64(entry + 16);
        const std::uint64_t payload_bytes = get_u64(entry + 24);
        const std::uint64_t checksum = get_u64(entry + 32);

        if (std::uint64_t{name_off} + name_len > names_bytes) {
            throw snapshot_error(errc::malformed,
                                 "section " + std::to_string(i) + " name out of bounds");
        }
        section_info info;
        info.name = std::string_view{names + name_off, name_len};
        if (!valid_elem(type)) {
            throw snapshot_error(errc::malformed, "section '" + std::string{info.name} +
                                                      "' has an unknown element type tag");
        }
        if (version == 1 && (encoding_tag != 0 || reserved != 0)) {
            throw snapshot_error(errc::malformed,
                                 "section '" + std::string{info.name} +
                                     "' has nonzero v2 encoding fields in a v1 file");
        }
        if (encoding_tag > table::enc::max_encoding_tag) {
            throw snapshot_error(errc::bad_encoding, "section '" + std::string{info.name} +
                                                         "' has an unknown encoding tag");
        }
        if (reserved != 0) {
            throw snapshot_error(errc::bad_encoding, "section '" + std::string{info.name} +
                                                         "' has nonzero reserved entry bytes");
        }
        const auto encoding = static_cast<table::enc::encoding>(encoding_tag);
        if (elem_size == 0 ||
            (type != elem_type::raw && elem_size != elem_size_of(type))) {
            throw snapshot_error(errc::malformed, "section '" + std::string{info.name} +
                                                      "' has an invalid element size");
        }
        if (payload_offset % alignment != 0 || payload_offset < first_payload ||
            payload_offset > size_ || payload_bytes > size_ - payload_offset) {
            throw snapshot_error(errc::truncated, "section '" + std::string{info.name} +
                                                      "' payload out of bounds");
        }
        if (encoding == table::enc::encoding::plain && payload_bytes % elem_size != 0) {
            throw snapshot_error(errc::malformed,
                                 "section '" + std::string{info.name} +
                                     "' length is not a multiple of its element size");
        }
        {
            obs::span section_span{"snapshot/section_verify"};
            section_span.set_items(payload_bytes);
            obs::registry::global().get_counter("snapshot.sections_read").add(1);
            obs::registry::global().get_counter("snapshot.bytes_read").add(payload_bytes);
            if (xxhash64(data_ + payload_offset, payload_bytes) != checksum) {
                throw snapshot_error(errc::checksum_mismatch, "section '" +
                                                                  std::string{info.name} +
                                                                  "' checksum mismatch");
            }
        }

        // Parse + fully validate the encoding (bounds, widths, code ranges,
        // rows within what is left of the decode budget) so typed_column can
        // decode without further checks. Nothing is decoded here — the
        // view's pointers alias the payload bytes.
        const std::span<const std::byte> payload{data_ + payload_offset, payload_bytes};
        table::enc::view_core view;
        const std::string encoding_error = table::enc::parse_view(
            encoding, payload, elem_size, decode_budget / elem_size, view);
        if (!encoding_error.empty()) {
            throw snapshot_error(errc::bad_encoding, "section '" + std::string{info.name} +
                                                         "': " + encoding_error);
        }
        if (encoding != table::enc::encoding::plain) decode_budget -= view.rows * elem_size;

        info.type = type;
        info.encoding = encoding;
        info.rows = view.rows;
        info.elem_size = elem_size;
        info.payload_offset = payload_offset;
        info.payload_bytes = payload_bytes;
        info.checksum = checksum;
        sections_.push_back(info);
        views_.push_back(view);
    }
}

std::size_t bundle::section_index(std::string_view name) const {
    for (std::size_t i = 0; i < sections_.size(); ++i) {
        if (sections_[i].name == name) return i;
    }
    throw snapshot_error(errc::section_missing, "section '" + std::string{name} + "' absent");
}

bool bundle::has(std::string_view name) const noexcept {
    return std::any_of(sections_.begin(), sections_.end(),
                       [&](const section_info& s) { return s.name == name; });
}

const bundle::section_info& bundle::section(std::string_view name) const {
    for (const auto& s : sections_) {
        if (s.name == name) return s;
    }
    throw snapshot_error(errc::section_missing, "section '" + std::string{name} + "' absent");
}

std::span<const std::byte> bundle::raw(std::string_view name) const {
    const auto& s = section(name);
    return {data_ + s.payload_offset, s.payload_bytes};
}

} // namespace ac::snapshot
