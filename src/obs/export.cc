#include "obs/export.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace coldboot::obs
{

namespace
{

/** Format a double the way Prometheus expects (shortest round-trip
 *  is not required; %.17g keeps counters exact through 2^53). */
std::string
promNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Escape a HELP text: backslash and newline per the format spec. */
std::string
promHelpEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

void
emitFamily(std::string &out, const std::string &name,
           const std::string &help, const char *type)
{
    if (!help.empty())
        out += "# HELP " + name + " " + promHelpEscape(help) + "\n";
    out += "# TYPE " + name + " " + type + "\n";
}

bool
legalNameChar(char c, bool first)
{
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
        c == ':')
        return true;
    return !first && std::isdigit(static_cast<unsigned char>(c));
}

} // anonymous namespace

std::string
prometheusName(const std::string &name)
{
    std::string out;
    out.reserve(name.size() + 1);
    for (char c : name)
        out += legalNameChar(c, false) ? c : '_';
    if (out.empty() ||
        std::isdigit(static_cast<unsigned char>(out[0])))
        out.insert(out.begin(), '_');
    return out;
}

std::string
renderPrometheusText(const std::vector<StatSnapshot> &stats)
{
    std::string out;
    out.reserve(stats.size() * 96);
    for (const auto &s : stats) {
        const std::string name = prometheusName(s.name);
        switch (s.type) {
          case StatSnapshot::Type::Counter:
            emitFamily(out, name, s.desc, "counter");
            out += name + " " + promNumber(s.value) + "\n";
            break;
          case StatSnapshot::Type::Scalar:
            emitFamily(out, name, s.desc, "gauge");
            out += name + " " + promNumber(s.value) + "\n";
            break;
          case StatSnapshot::Type::Distribution: {
            const DistributionSnapshot &d = s.dist;
            if (!d.bucket_edges.empty()) {
                // Cumulative histogram per the exposition format.
                emitFamily(out, name, s.desc, "histogram");
                uint64_t cum = 0;
                for (size_t i = 0; i < d.bucket_edges.size(); ++i) {
                    // bucket_counts[0] is the underflow bucket
                    // (-inf, e0); Prometheus le="e0" is cumulative
                    // count <= e0, which our [e_{i-1}, e_i) buckets
                    // approximate by summing through bucket i.
                    cum += d.bucket_counts[i];
                    out += name + "_bucket{le=\"" +
                           promNumber(d.bucket_edges[i]) + "\"} " +
                           promNumber(static_cast<double>(cum)) +
                           "\n";
                }
                cum += d.bucket_counts.back();
                out += name + "_bucket{le=\"+Inf\"} " +
                       promNumber(static_cast<double>(cum)) + "\n";
                out += name + "_sum " + promNumber(d.sum) + "\n";
                out += name + "_count " +
                       promNumber(static_cast<double>(d.count)) +
                       "\n";
            } else {
                emitFamily(out, name + "_count", s.desc, "counter");
                out += name + "_count " +
                       promNumber(static_cast<double>(d.count)) +
                       "\n";
                emitFamily(out, name + "_sum", "", "gauge");
                out += name + "_sum " + promNumber(d.sum) + "\n";
                emitFamily(out, name + "_min", "", "gauge");
                out += name + "_min " + promNumber(d.min) + "\n";
                emitFamily(out, name + "_max", "", "gauge");
                out += name + "_max " + promNumber(d.max) + "\n";
                emitFamily(out, name + "_mean", "", "gauge");
                out += name + "_mean " + promNumber(d.mean) + "\n";
            }
            break;
          }
        }
    }
    return out;
}

namespace
{

/** One whitespace-separated token starting at text[i]. */
std::string_view
tokenAt(std::string_view line, size_t &i)
{
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
        ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t')
        ++i;
    return line.substr(start, i - start);
}

bool
validMetricName(std::string_view name)
{
    if (name.empty())
        return false;
    for (size_t i = 0; i < name.size(); ++i)
        if (!legalNameChar(name[i], i == 0))
            return false;
    return true;
}

bool
validValue(std::string_view v)
{
    if (v == "+Inf" || v == "-Inf" || v == "Inf" || v == "NaN" ||
        v == "nan")
        return true;
    if (v.empty())
        return false;
    std::string s(v);
    char *end = nullptr;
    std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size();
}

/**
 * Validate a `name{label="value",...}` metric reference; returns the
 * position after it (npos on malformed input).
 */
size_t
validateMetricRef(std::string_view line, std::string_view &name)
{
    size_t brace = line.find_first_of("{ \t");
    if (brace == std::string_view::npos)
        return std::string_view::npos;
    name = line.substr(0, brace);
    if (!validMetricName(name))
        return std::string_view::npos;
    if (line[brace] != '{')
        return brace;
    // Walk the label set: name="value" pairs, comma separated, with
    // \\, \" and \n escapes inside the quoted value.
    size_t i = brace + 1;
    while (i < line.size() && line[i] != '}') {
        size_t eq = line.find('=', i);
        if (eq == std::string_view::npos ||
            !validMetricName(line.substr(i, eq - i)))
            return std::string_view::npos;
        i = eq + 1;
        if (i >= line.size() || line[i] != '"')
            return std::string_view::npos;
        ++i;
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\')
                ++i;
            ++i;
        }
        if (i >= line.size())
            return std::string_view::npos;
        ++i; // closing quote
        if (i < line.size() && line[i] == ',')
            ++i;
    }
    if (i >= line.size())
        return std::string_view::npos;
    return i + 1; // past '}'
}

} // anonymous namespace

bool
validatePrometheusText(std::string_view text, std::string *error)
{
    auto fail = [&](size_t line_no, const std::string &why) {
        if (error != nullptr)
            *error = "line " + std::to_string(line_no) + ": " + why;
        return false;
    };

    static const std::set<std::string, std::less<>> known_types = {
        "counter", "gauge", "histogram", "summary", "untyped"};

    std::set<std::string> typed; // metrics with a TYPE comment seen
    size_t line_no = 0;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t eol = text.find('\n', pos);
        std::string_view line = text.substr(
            pos, eol == std::string_view::npos ? text.size() - pos
                                               : eol - pos);
        pos = eol == std::string_view::npos ? text.size() + 1
                                            : eol + 1;
        ++line_no;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            size_t i = 1;
            std::string_view kw = tokenAt(line, i);
            if (kw != "HELP" && kw != "TYPE")
                continue; // free-form comment: legal
            std::string_view name = tokenAt(line, i);
            if (!validMetricName(name))
                return fail(line_no, "bad metric name in # " +
                                         std::string(kw));
            if (kw == "TYPE") {
                std::string_view ty = tokenAt(line, i);
                if (known_types.find(ty) == known_types.end())
                    return fail(line_no, "unknown TYPE '" +
                                             std::string(ty) + "'");
                if (!typed.insert(std::string(name)).second)
                    return fail(line_no, "duplicate TYPE for '" +
                                             std::string(name) +
                                             "'");
            }
            continue;
        }
        std::string_view name;
        size_t after = validateMetricRef(line, name);
        if (after == std::string_view::npos)
            return fail(line_no, "malformed metric reference");
        size_t i = after;
        std::string_view value = tokenAt(line, i);
        if (!validValue(value))
            return fail(line_no, "bad sample value '" +
                                     std::string(value) + "'");
        std::string_view ts = tokenAt(line, i);
        if (!ts.empty() && !validValue(ts))
            return fail(line_no, "bad timestamp '" +
                                     std::string(ts) + "'");
        std::string_view rest = tokenAt(line, i);
        if (!rest.empty())
            return fail(line_no, "trailing garbage after sample");
    }
    return true;
}

} // namespace coldboot::obs
