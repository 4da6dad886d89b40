#include "sim/parse.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/log.hh"

namespace affalloc::sim
{

std::uint64_t
parseCount(const char *component, const char *origin, const std::string &text,
           std::uint64_t max, std::uint64_t min)
{
    bool ok = !text.empty();
    for (const char c : text)
        ok = ok && c >= '0' && c <= '9';
    std::uint64_t n = 0;
    if (ok) {
        errno = 0;
        n = std::strtoull(text.c_str(), nullptr, 10);
        ok = errno == 0 && n >= min && n <= max;
    }
    if (!ok) {
        SIM_FATAL(component, "%s=%s: expected an integer in [%llu, %llu]",
                  origin, text.c_str(), static_cast<unsigned long long>(min),
                  static_cast<unsigned long long>(max));
    }
    return n;
}

double
parseReal(const char *component, const char *origin, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    // A leading digit or point rules out signs, blanks, "nan" and "inf".
    const bool ok = !text.empty() &&
                    ((text[0] >= '0' && text[0] <= '9') || text[0] == '.') &&
                    end == text.c_str() + text.size() && std::isfinite(v);
    if (!ok) {
        SIM_FATAL(component, "%s=%s: expected a finite number >= 0", origin,
                  text.c_str());
    }
    return v;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const unsigned char uc = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (uc < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", uc);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace affalloc::sim
