/**
 * @file
 * Strict numeric parsing for outside input (command-line flags,
 * environment variables): the whole string must be one number of the
 * target type inside a closed range. Garbage, trailing characters,
 * leading whitespace or '+', a '-' on an unsigned target, overflow,
 * non-finite doubles and out-of-range values are all errors — where
 * `stoul` would read "12abc" as 12 and "-1" as 2^64 - 1.
 */

#ifndef CEGMA_COMMON_PARSE_HH
#define CEGMA_COMMON_PARSE_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace cegma {

/**
 * `text` as a T in [lo, hi], or nullopt. Integers are decimal;
 * doubles take `strtod`'s decimal and exponent forms.
 */
template <typename T>
std::optional<T>
parseInRange(std::string_view text, T lo, T hi)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    if (text.empty())
        return std::nullopt;
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return std::nullopt;
    }
    if (value < lo || value > hi)
        return std::nullopt;
    return value;
}

/**
 * `text` as the value of `flag`, in [lo, hi] (by default T's whole
 * range). On bad input prints "<flag>: expected <kind> in [lo, hi],
 * got '<text>'" to stderr and exits with status 2, the tools' usage
 * status.
 */
template <typename T>
T
flagValue(const char *flag, std::string_view text,
          T lo = std::numeric_limits<T>::lowest(),
          T hi = std::numeric_limits<T>::max())
{
    if (std::optional<T> value = parseInRange(text, lo, hi))
        return *value;
    std::string range;
    if constexpr (std::is_floating_point_v<T>) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "a number in [%g, %g]",
                      static_cast<double>(lo), static_cast<double>(hi));
        range = buf;
    } else {
        range = "an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]";
    }
    std::fprintf(stderr, "%s: expected %s, got '%.*s'\n", flag,
                 range.c_str(), static_cast<int>(text.size()),
                 text.data());
    std::exit(2);
}

} // namespace cegma

#endif // CEGMA_COMMON_PARSE_HH
