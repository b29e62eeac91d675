#include "check/stability_check.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "check/rule_ids.hh"

namespace rigor::check
{

namespace
{

std::string
formatDouble(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3g", value);
    return buffer;
}

// ----- Minimal JSON reader for --stability-out reports -----
//
// The report writer (methodology/rank_stability.cc) emits a small,
// fixed schema; this reader covers exactly the JSON subset it uses
// (objects, arrays, strings with \-escapes, numbers, booleans, null)
// so the lint path carries no external dependency.

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue *find(const std::string &key) const
    {
        for (const auto &[name, value] : members)
            if (name == key)
                return &value;
        return nullptr;
    }
};

class JsonReader
{
  public:
    explicit JsonReader(std::string_view text) : _text(text) {}

    /** Parse the whole input; false leaves the error in error(). */
    bool parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out, 0))
            return false;
        skipSpace();
        if (_pos != _text.size())
            return fail("trailing characters after the document");
        return true;
    }

    const std::string &error() const { return _error; }
    std::size_t line() const { return _line; }

  private:
    static constexpr int kMaxDepth = 32;

    bool fail(const std::string &what)
    {
        if (_error.empty())
            _error = what;
        return false;
    }

    void skipSpace()
    {
        while (_pos < _text.size()) {
            const char c = _text[_pos];
            if (c == '\n')
                ++_line;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++_pos;
        }
    }

    bool consume(char expected)
    {
        if (_pos >= _text.size() || _text[_pos] != expected)
            return fail(std::string("expected '") + expected + "'");
        ++_pos;
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        const char c = _text[_pos];
        if (c == '{')
            return parseObject(out, depth);
        if (c == '[')
            return parseArray(out, depth);
        if (c == '"') {
            if (!parseString(out.text))
                return false;
            out.kind = JsonValue::Kind::String;
            return true;
        }
        if (c == 't' || c == 'f') {
            if (!parseKeyword(c == 't' ? "true" : "false"))
                return false;
            out.kind = JsonValue::Kind::Bool;
            out.boolean = (c == 't');
            return true;
        }
        if (c == 'n')
            return parseKeyword("null");
        return parseNumber(out);
    }

    bool parseKeyword(std::string_view word)
    {
        if (_text.substr(_pos, word.size()) != word)
            return fail("unrecognized token");
        _pos += word.size();
        return true;
    }

    bool parseObject(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++_pos; // '{'
        skipSpace();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return false;
            skipSpace();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.members.emplace_back(std::move(key),
                                     std::move(value));
            skipSpace();
            if (_pos < _text.size() && _text[_pos] == ',') {
                ++_pos;
                continue;
            }
            return consume('}');
        }
    }

    bool parseArray(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++_pos; // '['
        skipSpace();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            skipSpace();
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.items.push_back(std::move(value));
            skipSpace();
            if (_pos < _text.size() && _text[_pos] == ',') {
                ++_pos;
                continue;
            }
            return consume(']');
        }
    }

    bool parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (_pos < _text.size()) {
            const char c = _text[_pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (_pos >= _text.size())
                    break;
                const char escaped = _text[_pos++];
                switch (escaped) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'n': out.push_back('\n'); break;
                case 't': out.push_back('\t'); break;
                case 'r': out.push_back('\r'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'u':
                    // The writer never emits \u escapes; reject
                    // rather than mis-decode.
                    return fail("\\u escapes are not supported");
                default:
                    return fail("bad escape in string");
                }
                continue;
            }
            out.push_back(c);
        }
        return fail("unterminated string");
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = _pos;
        if (_pos < _text.size() &&
            (_text[_pos] == '-' || _text[_pos] == '+'))
            ++_pos;
        bool digits = false;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) !=
                    0 ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '-' ||
                _text[_pos] == '+')) {
            digits = true;
            ++_pos;
        }
        if (!digits)
            return fail("expected a value");
        const std::string token(_text.substr(start, _pos - start));
        char *end = nullptr;
        out.number = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    std::string_view _text;
    std::size_t _pos = 0;
    std::size_t _line = 1;
    std::string _error;
};

/** Extract a finite non-negative number member; false on shape error. */
bool
numberMember(const JsonValue &object, const std::string &key,
             double &out)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || value->kind != JsonValue::Kind::Number)
        return false;
    out = value->number;
    return true;
}

bool
boolMember(const JsonValue &object, const std::string &key, bool &out)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr || value->kind != JsonValue::Kind::Bool)
        return false;
    out = value->boolean;
    return true;
}

/**
 * Convert a parsed report document into findings. Returns false with
 * @p why set when the document does not have the writer's shape.
 */
bool
findingsFromJson(const JsonValue &root, RankStabilityFindings &out,
                 std::string &why)
{
    if (root.kind != JsonValue::Kind::Object) {
        why = "top-level value is not an object";
        return false;
    }
    // The count must fit an unsigned exactly: a fraction, a value past
    // 2^32 - 1 or an overflowed literal (1e999 reads as infinity)
    // would otherwise wrap or truncate on the cast.
    double replicates = 0.0;
    if (!numberMember(root, "replicates", replicates) ||
        !(replicates >= 0.0 &&
          replicates <= std::numeric_limits<unsigned>::max()) ||
        replicates != std::floor(replicates)) {
        why = "missing or malformed 'replicates' (want an integer in "
              "[0, " +
              std::to_string(std::numeric_limits<unsigned>::max()) + "])";
        return false;
    }
    out.replicates = static_cast<unsigned>(replicates);
    if (!boolMember(root, "sampled", out.sampled)) {
        why = "missing or malformed 'sampled'";
        return false;
    }
    if (!boolMember(root, "samplingCiComposed",
                    out.samplingCiComposed)) {
        why = "missing or malformed 'samplingCiComposed'";
        return false;
    }

    const JsonValue *factors = root.find("factors");
    if (factors == nullptr ||
        factors->kind != JsonValue::Kind::Array) {
        why = "missing or malformed 'factors'";
        return false;
    }
    for (const JsonValue &factor : factors->items) {
        if (factor.kind != JsonValue::Kind::Object) {
            why = "'factors' entry is not an object";
            return false;
        }
        const JsonValue *name = factor.find("name");
        double lower = 0.0;
        double upper = 0.0;
        if (name == nullptr ||
            name->kind != JsonValue::Kind::String ||
            !numberMember(factor, "rankLower", lower) ||
            !numberMember(factor, "rankUpper", upper)) {
            why = "'factors' entry lacks name/rankLower/rankUpper";
            return false;
        }
        out.factorNames.push_back(name->text);
        out.rankLower.push_back(lower);
        out.rankUpper.push_back(upper);
    }

    const JsonValue *flips = root.find("flipProbability");
    if (flips == nullptr || flips->kind != JsonValue::Kind::Array) {
        why = "missing or malformed 'flipProbability'";
        return false;
    }
    for (const JsonValue &row : flips->items) {
        if (row.kind != JsonValue::Kind::Array) {
            why = "'flipProbability' row is not an array";
            return false;
        }
        std::vector<double> values;
        values.reserve(row.items.size());
        for (const JsonValue &cell : row.items) {
            if (cell.kind != JsonValue::Kind::Number) {
                why = "'flipProbability' cell is not a number";
                return false;
            }
            values.push_back(cell.number);
        }
        out.flipProbability.push_back(std::move(values));
    }
    for (const std::vector<double> &row : out.flipProbability) {
        if (row.size() != out.flipProbability.size()) {
            why = "'flipProbability' matrix is not square";
            return false;
        }
    }
    if (out.flipProbability.size() > out.factorNames.size()) {
        why = "'flipProbability' is larger than 'factors'";
        return false;
    }
    return true;
}

} // namespace

void
checkReplicationPlan(const stats::ReplicationOptions &replication,
                     DiagnosticSink &sink)
{
    if (!replication.enabled())
        return;
    if (replication.replicates < kMinReplicates) {
        sink.error(
            rules::kCampaignUnderReplicated,
            "campaign requests " +
                std::to_string(replication.replicates) +
                " workload replicate(s) but the configured minimum "
                "is " +
                std::to_string(kMinReplicates) +
                "; rank conclusions need enough independent "
                "realizations to separate workload noise from "
                "parameter effects",
            {{}, 0, "replication plan"});
    }
    try {
        replication.bootstrap.validate();
    } catch (const std::invalid_argument &e) {
        sink.error(rules::kCampaignUnderReplicated, e.what(),
                   {{}, 0, "replication plan"});
    }
}

void
checkRankStability(const RankStabilityFindings &findings,
                   const StabilityCheckOptions &options,
                   DiagnosticSink &sink)
{
    const std::size_t top =
        std::min<std::size_t>(options.topFactors,
                              findings.factorNames.size());

    // Adjacent overlapping rank CIs: the reported order of the two
    // factors is not resolved by the data.
    for (std::size_t i = 0; i + 1 < top; ++i) {
        if (i + 1 >= findings.rankLower.size() ||
            i >= findings.rankUpper.size())
            break;
        if (findings.rankLower[i + 1] <= findings.rankUpper[i]) {
            sink.warning(
                rules::kStatsRankCiOverlap,
                "rank CIs of '" + findings.factorNames[i] + "' [" +
                    formatDouble(findings.rankLower[i]) + ", " +
                    formatDouble(findings.rankUpper[i]) + "] and '" +
                    findings.factorNames[i + 1] + "' [" +
                    formatDouble(findings.rankLower[i + 1]) + ", " +
                    formatDouble(findings.rankUpper[i + 1]) +
                    "] overlap; their order is not resolved",
                {{}, 0,
                 "rank " + std::to_string(i + 1) + " vs " +
                     std::to_string(i + 2)});
        }
    }

    // Reported inversions inside noise: the bootstrap swaps the pair
    // more often than the threshold allows.
    const std::size_t flip_top =
        std::min(top, findings.flipProbability.size());
    for (std::size_t i = 0; i < flip_top; ++i) {
        for (std::size_t j = i + 1; j < flip_top; ++j) {
            const double p = findings.flipProbability[i][j];
            if (p > options.flipThreshold) {
                sink.error(
                    rules::kStatsRankFlipInsideNoise,
                    "reported order '" + findings.factorNames[i] +
                        "' ahead of '" + findings.factorNames[j] +
                        "' flips in " + formatDouble(p * 100.0) +
                        "% of bootstrap iterations (threshold " +
                        formatDouble(options.flipThreshold * 100.0) +
                        "%); the inversion is inside noise",
                    {{}, 0,
                     "rank " + std::to_string(i + 1) + " vs " +
                         std::to_string(j + 1)});
            }
        }
    }

    if (findings.sampled && !findings.samplingCiComposed) {
        sink.error(
            rules::kStatsCiComposeMissing,
            "campaign used sampled simulation but per-run CPI "
            "sampling CIs were not root-sum-square-composed with "
            "the replication CIs; reported uncertainty understates "
            "the truth",
            {{}, 0, "uncertainty composition"});
    }
}

void
lintStabilityReport(std::string_view text, const std::string &path,
                    const StabilityCheckOptions &options,
                    DiagnosticSink &sink)
{
    JsonReader reader(text);
    JsonValue root;
    if (!reader.parse(root)) {
        sink.error(rules::kStatsReportSyntax,
                   "stability report is not valid JSON: " +
                       reader.error(),
                   {path, reader.line(), {}});
        return;
    }
    RankStabilityFindings findings;
    std::string why;
    if (!findingsFromJson(root, findings, why)) {
        sink.error(rules::kStatsReportSyntax,
                   "stability report has the wrong shape: " + why,
                   {path, 0, {}});
        return;
    }
    stats::ReplicationOptions replication;
    replication.replicates = findings.replicates;
    checkReplicationPlan(replication, sink);
    checkRankStability(findings, options, sink);
}

} // namespace rigor::check
