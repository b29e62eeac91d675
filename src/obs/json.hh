/**
 * @file
 * Minimal JSON rendering helpers shared by the observability sinks.
 *
 * The metrics exporter, the Chrome trace writer, and the campaign
 * manifest all emit JSON without depending on a JSON library: each
 * record is a flat object built from strings, integers, and doubles.
 * These helpers centralize the two parts that are easy to get subtly
 * wrong — string escaping and round-trippable double rendering — plus
 * the FNV-1a digest used for design/rank-table identity lines — and
 * the one file writer every sink and tool output goes through.
 */

#ifndef RIGOR_OBS_JSON_HH
#define RIGOR_OBS_JSON_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace rigor::obs
{

/** Append @p text to @p out as a quoted, escaped JSON string. */
inline void
appendJsonString(std::string &out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/**
 * Shortest round-trip rendering of @p value (std::to_chars). NaN/Inf
 * are not valid JSON numbers; they render as null.
 */
inline std::string
jsonNumber(double value)
{
    if (value != value || value == __builtin_inf() ||
        value == -__builtin_inf())
        return "null";
    char buffer[64];
    const std::to_chars_result res =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, res.ptr);
}

/** 64-bit FNV-1a digest (stable content identity for manifests). */
inline std::uint64_t
fnv1a(std::string_view text, std::uint64_t seed = 14695981039346656037ull)
{
    std::uint64_t hash = seed;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Fixed-width lowercase-hex rendering of a 64-bit digest. */
inline std::string
digestHex(std::uint64_t digest)
{
    static const char hex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = hex[digest & 0xf];
        digest >>= 4;
    }
    return out;
}

/**
 * Replace the contents of @p path with @p text. Throws
 * std::runtime_error naming the path when the file cannot be opened
 * or the write fails.
 */
void writeTextFile(const std::string &path, std::string_view text);

} // namespace rigor::obs

#endif // RIGOR_OBS_JSON_HH
