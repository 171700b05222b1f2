#include "src/core/render.h"

#include <ostream>

#include "src/netbase/strfmt.h"

namespace ac::core {

void print_cdf_row(std::ostream& os, const std::string& label,
                   const analysis::weighted_cdf& cdf, const std::string& unit) {
    os << "  " << label << ": ";
    if (cdf.empty()) {
        os << "(no data)\n";
        return;
    }
    os << "zero-frac=" << strfmt::fixed(cdf.fraction_leq(0.5), 3);
    for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
        os << "  p" << static_cast<int>(q * 100) << "=" << strfmt::fixed(cdf.quantile(q), 1);
    }
    os << " " << unit << "  (n=" << cdf.size() << ")\n";
}

} // namespace ac::core
