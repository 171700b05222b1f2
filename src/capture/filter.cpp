#include "src/capture/filter.h"

namespace ac::capture {

namespace {

enum class verdict { keep, private_source, invalid_tld, ptr };

/// The one §2.1 rule both the row and the columnar filter apply.
verdict judge(net::ipv4_addr source, query_category category, const filter_options& options) {
    if (options.drop_private_sources && net::is_private_or_reserved(source)) {
        return verdict::private_source;
    }
    if (options.drop_invalid_tld && category == query_category::invalid_tld) {
        return verdict::invalid_tld;
    }
    if (options.drop_ptr && category == query_category::ptr) return verdict::ptr;
    return verdict::keep;
}

} // namespace

filtered_letter filter_letter(const letter_capture& capture, const filter_options& options) {
    filtered_letter out;
    out.letter = capture.letter;
    out.spec = capture.spec;
    out.tcp_rtts = capture.tcp_rtts;
    out.stats.ipv6_dropped = capture.ipv6_queries_per_day;
    out.stats.raw_queries_per_day = capture.ipv6_queries_per_day;

    for (const auto& record : capture.records) {
        out.stats.raw_queries_per_day += record.queries_per_day;
        switch (judge(record.source_ip, record.category, options)) {
        case verdict::private_source:
            out.stats.private_dropped += record.queries_per_day;
            break;
        case verdict::invalid_tld:
            out.stats.invalid_dropped += record.queries_per_day;
            break;
        case verdict::ptr:
            out.stats.ptr_dropped += record.queries_per_day;
            break;
        case verdict::keep:
            out.stats.kept += record.queries_per_day;
            out.records.push_back(record);
            break;
        }
    }
    return out;
}

std::vector<filtered_letter> filter_all(const ditl_dataset& dataset,
                                        const filter_options& options) {
    std::vector<filtered_letter> out;
    out.reserve(dataset.letters.size());
    for (const auto& lc : dataset.letters) out.push_back(filter_letter(lc, options));
    return out;
}

namespace {

letter_table columns_of(char letter, const dns::letter_spec& spec,
                        std::span<const capture_record> records,
                        std::span<const tcp_latency_row> tcp_rtts) {
    letter_table t;
    t.letter = letter;
    t.spec = spec;
    t.source_ip.reserve(records.size());
    t.site.reserve(records.size());
    t.category.reserve(records.size());
    t.queries_per_day.reserve(records.size());
    for (const auto& r : records) {
        t.source_ip.push_back(r.source_ip.value());
        t.site.push_back(r.site);
        t.category.push_back(r.category);
        t.queries_per_day.push_back(r.queries_per_day);
    }
    t.tcp_key.reserve(tcp_rtts.size());
    t.tcp_median_rtt_ms.reserve(tcp_rtts.size());
    for (const auto& row : tcp_rtts) {
        t.tcp_key.push_back((std::uint64_t{row.source.key()} << 32) | row.site);
        t.tcp_median_rtt_ms.push_back(row.median_rtt_ms);
    }
    return t;
}

} // namespace

letter_table to_table(const filtered_letter& letter) {
    return columns_of(letter.letter, letter.spec, letter.records, letter.tcp_rtts);
}

letter_table to_table(const letter_capture& capture) {
    return columns_of(capture.letter, capture.spec, capture.records, capture.tcp_rtts);
}

letter_table filter_table(const letter_table& raw, const filter_options& options) {
    letter_table out;
    out.letter = raw.letter;
    out.spec = raw.spec;
    const auto ip = raw.source_ip.view();
    const auto site = raw.site.view();
    const auto category = raw.category.view();
    const auto volume = raw.queries_per_day.view();
    for (std::size_t i = 0; i < ip.size(); ++i) {
        if (judge(net::ipv4_addr{ip[i]}, category[i], options) != verdict::keep) continue;
        out.source_ip.push_back(ip[i]);
        out.site.push_back(site[i]);
        out.category.push_back(category[i]);
        out.queries_per_day.push_back(volume[i]);
    }
    out.tcp_key = raw.tcp_key;
    out.tcp_median_rtt_ms = raw.tcp_median_rtt_ms;
    return out;
}

std::vector<letter_table> to_tables(std::span<const filtered_letter> letters) {
    std::vector<letter_table> out;
    out.reserve(letters.size());
    for (const auto& letter : letters) out.push_back(to_table(letter));
    return out;
}

} // namespace ac::capture
