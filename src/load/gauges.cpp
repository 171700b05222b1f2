#include "src/load/gauges.h"

#include <vector>

#include "src/obs/metrics.h"
#include "src/table/table.h"

namespace ac::load {

std::string front_end_conn_gauge_name(int front_end) {
    return "load.front_end_conn." + std::to_string(front_end);
}

std::string letter_users_gauge_name(std::string_view letter) {
    return "load.letter_users." + std::string{letter};
}

void set_front_end_conn_gauges(std::span<const double> conn_by_front_end) {
    auto& reg = obs::registry::global();
    for (std::size_t f = 0; f < conn_by_front_end.size(); ++f) {
        reg.get_gauge(front_end_conn_gauge_name(static_cast<int>(f)))
            .set(conn_by_front_end[f]);
    }
}

void publish_front_end_conn_gauges(const cdn::server_log_table& logs) {
    if (logs.rows() == 0) return;
    const auto grouping = table::make_grouping(logs.front_end.view());
    std::vector<double> conn(logs.rows());
    for (std::size_t i = 0; i < logs.rows(); ++i) {
        conn[i] = static_cast<double>(logs.sample_count[i]);
    }
    const auto totals = table::sum_by(grouping, std::span<const double>{conn});
    auto& reg = obs::registry::global();
    for (std::size_t g = 0; g < grouping.groups(); ++g) {
        reg.get_gauge(front_end_conn_gauge_name(static_cast<int>(grouping.keys[g])))
            .set(totals[g]);
    }
}

} // namespace ac::load
