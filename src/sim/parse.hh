/**
 * @file
 * Strict parsers for numeric values read from outside the program.
 * Every layer that reads a count or a real from a flag, an environment
 * variable, a spec string or a repro bundle goes through these two, so
 * all of them reject the same garbage with the same message. Beside
 * them sits the one JSON string escaper every JSON writer uses.
 */

#ifndef AFFALLOC_SIM_PARSE_HH
#define AFFALLOC_SIM_PARSE_HH

#include <cstdint>
#include <string>

namespace affalloc::sim
{

/**
 * Strict decimal parse of a count: digits only (no sign, suffix or
 * blank) and within [@p min, @p max], else SIM_FATAL under
 * @p component naming @p origin (the flag, environment variable or
 * spec field that supplied @p text).
 */
std::uint64_t parseCount(const char *component, const char *origin,
                         const std::string &text, std::uint64_t max,
                         std::uint64_t min = 0);

/**
 * Strict parse of a finite, non-negative real: the whole of @p text
 * must be a number (no NaN, infinity, sign or suffix), else SIM_FATAL
 * under @p component naming @p origin.
 */
double parseReal(const char *component, const char *origin,
                 const std::string &text);

/**
 * @p s escaped for the inside of a JSON string: `\"`, `\\`, `\n`,
 * and `\u00XX` for every other control character; all other bytes
 * pass through.
 */
std::string jsonEscape(const std::string &s);

} // namespace affalloc::sim

#endif // AFFALLOC_SIM_PARSE_HH
