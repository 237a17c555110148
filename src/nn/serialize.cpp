#include "nn/serialize.hpp"

#include <locale>
#include <sstream>

#include "support/logging.hpp"

namespace pruner {

// Both directions imbue the classic locale: parameter files written on one
// machine must load on any other regardless of the global locale (a
// comma-decimal locale would otherwise corrupt the doubles).

std::string
encodeParams(const std::vector<double>& flat)
{
    std::ostringstream out;
    out.imbue(std::locale::classic());
    out.precision(17);
    out << flat.size() << "\n";
    for (double v : flat) {
        out << v << "\n";
    }
    return out.str();
}

std::vector<double>
decodeParams(const std::string& text)
{
    std::istringstream in(text);
    in.imbue(std::locale::classic());
    size_t n = 0;
    if (!(in >> n)) {
        PRUNER_FATAL("malformed parameter count");
    }
    // A corrupt count must not drive a huge allocation before the
    // truncation check below can reject the text. Every value takes at
    // least two bytes ("0\n"), which bounds the count by the text too.
    constexpr size_t kMaxParams = size_t{1} << 28;
    if (n > kMaxParams || n > text.size() / 2) {
        PRUNER_FATAL("implausible parameter count " << n);
    }
    std::vector<double> flat(n);
    for (size_t i = 0; i < n; ++i) {
        if (!(in >> flat[i])) {
            PRUNER_FATAL("truncated parameter list (" << i << " of " << n
                                                      << " values)");
        }
    }
    if (!(in >> std::ws).eof()) {
        PRUNER_FATAL("trailing data after " << n << " parameters");
    }
    return flat;
}

} // namespace pruner
