/**
 * @file
 * Self-contained repro bundles. A bundle is one flat JSON object
 * holding everything needed to re-run a (shrunk) failing campaign on
 * any build: the serving configuration, the fault schedule in the
 * CLI's `bank:<id>@<cycle>,...` grammar, and the recorded verdict to
 * compare against. The reader here is the only JSON parser in the
 * repo, so the format stays deliberately minimal: string and
 * integer/double values only, no nesting. A bundle is input from
 * outside the program, so every number goes through sim::parseCount
 * or sim::parseReal and every string escape must be one the writer
 * (sim::jsonEscape) produces.
 *
 * The class list round-trips through an extended mix grammar
 * `wl:weight:maxRetries:retryBackoff:giveUpAfter`, comma-separated,
 * so client patience — which shapes whether a campaign sheds or
 * livelocks — replays exactly.
 */

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "chaos/chaos.hh"
#include "sim/log.hh"
#include "sim/parse.hh"

namespace affalloc::chaos
{

namespace
{

constexpr int bundleVersion = 2;

/** Position of the value after `"key":` (whitespace skipped), or npos. */
std::size_t
findKey(const std::string &json, const char *key)
{
    const std::string token = std::string("\"") + key + "\":";
    std::size_t at = json.find(token);
    if (at == std::string::npos)
        return std::string::npos;
    at += token.size();
    while (at < json.size() &&
           (json[at] == ' ' || json[at] == '\t' || json[at] == '\n'))
        ++at;
    return at;
}

/**
 * The string value of @p key, decoding the escapes sim::jsonEscape
 * writes (plus `\t`, which older bundles carry); any other escape is
 * fatal.
 */
std::string
getString(const std::string &json, const char *key)
{
    const std::size_t at = findKey(json, key);
    if (at == std::string::npos || at >= json.size() ||
        json[at] != '"')
        SIM_FATAL("chaos", "bundle is missing string key \"%s\"", key);
    std::string out;
    for (std::size_t i = at + 1; i < json.size(); ++i) {
        if (json[i] == '"')
            return out;
        if (json[i] != '\\') {
            out += json[i];
            continue;
        }
        const char e = ++i < json.size() ? json[i] : '\0';
        switch (e) {
          case '"': case '\\': out += e; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // \u00XX: the control characters jsonEscape spells out.
            unsigned v = 0;
            for (int d = 0; d < 4; ++d) {
                const char h = ++i < json.size() ? json[i] : '\0';
                if (!std::isxdigit(static_cast<unsigned char>(h)))
                    SIM_FATAL("chaos", "bundle key \"%s\": malformed "
                              "\\u escape", key);
                v = v * 16 + (h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
            }
            if (v >= 0x80)
                SIM_FATAL("chaos", "bundle key \"%s\": \\u%04x is not "
                          "ASCII", key, v);
            out += static_cast<char>(v);
            break;
          }
          default:
            SIM_FATAL("chaos", "bundle key \"%s\": unsupported escape "
                      "'\\%c'", key, e);
        }
    }
    SIM_FATAL("chaos", "bundle key \"%s\": unterminated string", key);
}

/** The bare (numeric) value of @p key: up to the next ',', '}' or
 *  line end, trailing blanks dropped. */
std::string
getToken(const std::string &json, const char *key)
{
    const std::size_t at = findKey(json, key);
    if (at == std::string::npos)
        SIM_FATAL("chaos", "bundle is missing numeric key \"%s\"", key);
    std::string tok = json.substr(at, json.find_first_of(",}\n", at) - at);
    while (!tok.empty() && (tok.back() == ' ' || tok.back() == '\t' ||
                            tok.back() == '\r'))
        tok.pop_back();
    return tok;
}

double
getDouble(const std::string &json, const char *key)
{
    return sim::parseReal("chaos", (std::string("bundle ") + key).c_str(),
                          getToken(json, key));
}

std::uint64_t
getU64(const std::string &json, const char *key,
       std::uint64_t max = ~std::uint64_t(0))
{
    return sim::parseCount("chaos", (std::string("bundle ") + key).c_str(),
                           getToken(json, key), max);
}

std::uint32_t
getU32(const std::string &json, const char *key)
{
    return static_cast<std::uint32_t>(getU64(json, key, ~std::uint32_t(0)));
}

bool
getFlag(const std::string &json, const char *key)
{
    return getU64(json, key, 1) != 0;
}

/** %.17g: shortest form that round-trips an IEEE double. */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
formatMix(const std::vector<serve::ServeClass> &classes)
{
    std::string s;
    for (const serve::ServeClass &c : classes) {
        if (!s.empty())
            s += ',';
        s += c.workload + ":" + fmtDouble(c.weight) + ":" +
             std::to_string(c.maxRetries) + ":" +
             std::to_string(c.retryBackoff) + ":" +
             std::to_string(c.giveUpAfter);
    }
    return s;
}

std::vector<serve::ServeClass>
parseMix(const std::string &spec)
{
    std::vector<serve::ServeClass> classes;
    std::istringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        std::istringstream fields(item);
        std::string wl, weight, retries, backoff, giveup;
        if (!std::getline(fields, wl, ':') ||
            !std::getline(fields, weight, ':') ||
            !std::getline(fields, retries, ':') ||
            !std::getline(fields, backoff, ':') ||
            !std::getline(fields, giveup, ':'))
            SIM_FATAL("chaos",
                      "bundle mix entry '%s' (want "
                      "wl:weight:retries:backoff:giveup)",
                      item.c_str());
        std::string extra;
        if (std::getline(fields, extra))
            SIM_FATAL("chaos", "bundle mix entry '%s' has fields past "
                      "giveup", item.c_str());
        serve::ServeClass c;
        c.workload = wl;
        c.weight = sim::parseReal("chaos", "bundle mix weight", weight);
        c.maxRetries = static_cast<std::uint32_t>(
            sim::parseCount("chaos", "bundle mix retries", retries,
                            ~std::uint32_t(0)));
        c.retryBackoff = sim::parseCount("chaos", "bundle mix backoff",
                                         backoff, ~std::uint64_t(0));
        c.giveUpAfter = sim::parseCount("chaos", "bundle mix giveup",
                                        giveup, ~std::uint64_t(0));
        classes.push_back(c);
    }
    return classes;
}

} // namespace

std::string
formatBundle(const Campaign &c, const Verdict &v)
{
    const serve::ServeOptions &o = c.opts;
    std::ostringstream os;
    os << "{\n";
    os << "  \"version\": " << bundleVersion << ",\n";
    os << "  \"index\": " << c.index << ",\n";
    os << "  \"mode\": " << static_cast<int>(o.mode) << ",\n";
    os << "  \"mesh_x\": " << o.machine.meshX << ",\n";
    os << "  \"mesh_y\": " << o.machine.meshY << ",\n";
    os << "  \"mix\": \"" << sim::jsonEscape(formatMix(o.classes))
       << "\",\n";
    os << "  \"requests\": " << o.numRequests << ",\n";
    os << "  \"rate\": " << fmtDouble(o.arrivalsPerMcycle) << ",\n";
    os << "  \"burstiness\": " << fmtDouble(o.burstiness) << ",\n";
    os << "  \"slots\": " << o.slots << ",\n";
    os << "  \"queue\": " << o.queueCapacity << ",\n";
    os << "  \"quantum\": " << o.quantumEpochs << ",\n";
    os << "  \"max_cycles\": " << o.maxCycles << ",\n";
    os << "  \"serve_seed\": " << o.seed << ",\n";
    os << "  \"alloc_seed\": " << o.allocOpts.seed << ",\n";
    os << "  \"quick\": " << (o.quick ? 1 : 0) << ",\n";
    os << "  \"reaffinity\": " << (o.reaffinity ? 1 : 0) << ",\n";
    os << "  \"audit\": " << (o.machine.simcheck.audit ? 1 : 0)
       << ",\n";
    os << "  \"audit_period\": " << o.machine.simcheck.auditPeriodEpochs
       << ",\n";
    os << "  \"watchdog\": " << o.machine.simcheck.watchdogStallEpochs
       << ",\n";
    os << "  \"schedule\": \""
       << sim::jsonEscape(sim::formatFaultSchedule(o.faultSchedule))
       << "\",\n";
    os << "  \"error_type\": \"" << sim::jsonEscape(v.errorType) << "\",\n";
    os << "  \"klass\": \"" << sim::jsonEscape(v.klass) << "\",\n";
    os << "  \"signature\": \"" << sim::jsonEscape(v.signature) << "\"\n";
    os << "}\n";
    return os.str();
}

Campaign
parseBundle(const std::string &json, Verdict *expected)
{
    const std::uint64_t version = getU64(json, "version");
    if (version != bundleVersion)
        SIM_FATAL("chaos", "bundle version %llu unsupported (want %d)",
                  static_cast<unsigned long long>(version),
                  bundleVersion);
    Campaign c;
    c.index = getU32(json, "index");
    serve::ServeOptions &o = c.opts;
    o.mode = static_cast<ExecMode>(
        getU64(json, "mode", static_cast<std::uint64_t>(ExecMode::affAlloc)));
    o.machine.meshX = getU32(json, "mesh_x");
    o.machine.meshY = getU32(json, "mesh_y");
    o.classes = parseMix(getString(json, "mix"));
    o.numRequests = getU32(json, "requests");
    o.arrivalsPerMcycle = getDouble(json, "rate");
    o.burstiness = getDouble(json, "burstiness");
    o.slots = getU32(json, "slots");
    o.queueCapacity = getU32(json, "queue");
    o.quantumEpochs = getU32(json, "quantum");
    o.maxCycles = getU64(json, "max_cycles");
    o.seed = getU64(json, "serve_seed");
    o.allocOpts.seed = getU64(json, "alloc_seed");
    o.quick = getFlag(json, "quick");
    o.reaffinity = getFlag(json, "reaffinity");
    o.machine.simcheck.audit = getFlag(json, "audit");
    o.machine.simcheck.auditPeriodEpochs = getU32(json, "audit_period");
    o.machine.simcheck.watchdogStallEpochs = getU32(json, "watchdog");
    o.faultSchedule =
        sim::parseFaultSchedule(getString(json, "schedule"));
    if (expected) {
        expected->failed = true;
        expected->errorType = getString(json, "error_type");
        expected->klass = getString(json, "klass");
        expected->signature = getString(json, "signature");
    }
    return c;
}

void
writeBundleFile(const std::string &path, const Campaign &c,
                const Verdict &v)
{
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream out(path);
    out << formatBundle(c, v);
    if (!out)
        SIM_FATAL("chaos", "cannot write repro bundle '%s'",
                  path.c_str());
}

ReplayResult
replayBundleFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        SIM_FATAL("chaos", "cannot read repro bundle '%s'",
                  path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    ReplayResult r;
    r.campaign = parseBundle(buf.str(), &r.expected);
    r.got = runOracle(r.campaign.opts);
    r.reproduced = r.got.failed &&
                   r.got.errorType == r.expected.errorType &&
                   r.got.signature == r.expected.signature;
    return r;
}

} // namespace affalloc::chaos
