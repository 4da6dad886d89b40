/**
 * @file
 * Self-contained repro bundles. A bundle is one flat JSON object
 * holding everything needed to re-run a (shrunk) failing campaign on
 * any build: the serving configuration, the fault schedule in the
 * CLI's `bank:<id>@<cycle>,...` grammar, and the recorded verdict to
 * compare against. The writer and the hand-rolled reader here are
 * the only JSON code in the repo, so the format stays deliberately
 * minimal: string and integer/double values only, no nesting.
 *
 * The class list round-trips through an extended mix grammar
 * `wl:weight:maxRetries:retryBackoff:giveUpAfter`, comma-separated,
 * so client patience — which shapes whether a campaign sheds or
 * livelocks — replays exactly.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "chaos/chaos.hh"
#include "sim/log.hh"

namespace affalloc::chaos
{

namespace
{

constexpr int bundleVersion = 2;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        ++i;
        switch (s[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += s[i];
        }
    }
    return out;
}

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

std::string
getString(const std::string &json, const char *key)
{
    const std::size_t at = findKey(json, key);
    if (at == std::string::npos || at >= json.size() ||
        json[at] != '"')
        SIM_FATAL("chaos", "bundle is missing string key \"%s\"", key);
    std::string raw;
    for (std::size_t i = at + 1; i < json.size(); ++i) {
        if (json[i] == '\\' && i + 1 < json.size()) {
            raw += json[i];
            raw += json[i + 1];
            ++i;
        } else if (json[i] == '"') {
            return jsonUnescape(raw);
        } else {
            raw += json[i];
        }
    }
    SIM_FATAL("chaos", "bundle key \"%s\": unterminated string", key);
}

double
getDouble(const std::string &json, const char *key)
{
    const std::size_t at = findKey(json, key);
    if (at == std::string::npos)
        SIM_FATAL("chaos", "bundle is missing numeric key \"%s\"", key);
    char *end = nullptr;
    const double v = std::strtod(json.c_str() + at, &end);
    if (end == json.c_str() + at)
        SIM_FATAL("chaos", "bundle key \"%s\" is not a number", key);
    return v;
}

std::uint64_t
getU64(const std::string &json, const char *key)
{
    const std::size_t at = findKey(json, key);
    if (at == std::string::npos)
        SIM_FATAL("chaos", "bundle is missing numeric key \"%s\"", key);
    char *end = nullptr;
    const std::uint64_t v =
        std::strtoull(json.c_str() + at, &end, 10);
    if (end == json.c_str() + at)
        SIM_FATAL("chaos", "bundle key \"%s\" is not a number", key);
    return v;
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
        serve::ServeClass c;
        c.workload = wl;
        c.weight = std::strtod(weight.c_str(), nullptr);
        c.maxRetries =
            static_cast<std::uint32_t>(std::strtoul(retries.c_str(),
                                                    nullptr, 10));
        c.retryBackoff = std::strtoull(backoff.c_str(), nullptr, 10);
        c.giveUpAfter = std::strtoull(giveup.c_str(), nullptr, 10);
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
    os << "  \"mix\": \"" << jsonEscape(formatMix(o.classes))
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
       << jsonEscape(sim::formatFaultSchedule(o.faultSchedule))
       << "\",\n";
    os << "  \"error_type\": \"" << jsonEscape(v.errorType) << "\",\n";
    os << "  \"klass\": \"" << jsonEscape(v.klass) << "\",\n";
    os << "  \"signature\": \"" << jsonEscape(v.signature) << "\"\n";
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
    c.index = static_cast<std::uint32_t>(getU64(json, "index"));
    serve::ServeOptions &o = c.opts;
    o.mode = static_cast<ExecMode>(getU64(json, "mode"));
    o.machine.meshX =
        static_cast<std::uint32_t>(getU64(json, "mesh_x"));
    o.machine.meshY =
        static_cast<std::uint32_t>(getU64(json, "mesh_y"));
    o.classes = parseMix(getString(json, "mix"));
    o.numRequests =
        static_cast<std::uint32_t>(getU64(json, "requests"));
    o.arrivalsPerMcycle = getDouble(json, "rate");
    o.burstiness = getDouble(json, "burstiness");
    o.slots = static_cast<std::uint32_t>(getU64(json, "slots"));
    o.queueCapacity =
        static_cast<std::uint32_t>(getU64(json, "queue"));
    o.quantumEpochs =
        static_cast<std::uint32_t>(getU64(json, "quantum"));
    o.maxCycles = getU64(json, "max_cycles");
    o.seed = getU64(json, "serve_seed");
    o.allocOpts.seed = getU64(json, "alloc_seed");
    o.quick = getU64(json, "quick") != 0;
    o.reaffinity = getU64(json, "reaffinity") != 0;
    o.machine.simcheck.audit = getU64(json, "audit") != 0;
    o.machine.simcheck.auditPeriodEpochs =
        static_cast<std::uint32_t>(getU64(json, "audit_period"));
    o.machine.simcheck.watchdogStallEpochs =
        static_cast<std::uint32_t>(getU64(json, "watchdog"));
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
