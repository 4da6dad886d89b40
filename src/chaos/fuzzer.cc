/**
 * @file
 * Campaign generation and the fuzz loop. See chaos.hh for the
 * determinism contract; the one rule that matters throughout this
 * file is that every random draw comes from an Rng seeded by
 * (FuzzOptions::seed, campaign index) and nothing consults host
 * state, so campaign i is the same bytes on every machine.
 */

#include <algorithm>
#include <cctype>
#include <functional>

#include "chaos/chaos.hh"
#include "harness/sweep.hh"
#include "sim/log.hh"
#include "sim/prof.hh"
#include "sim/rng.hh"
#include "sim/simcheck.hh"

namespace affalloc::chaos
{

namespace
{

// Substream bases for the per-campaign seeds. Offsets keep the three
// derived streams (campaign draws, serve arrivals, allocator) apart
// for any campaign count below 2^24.
constexpr std::uint64_t campaignStreamBase = 0x0c4a05000ULL;
constexpr std::uint64_t serveSeedStreamBase = 0x05e47e000ULL;
constexpr std::uint64_t allocSeedStreamBase = 0x0a110c000ULL;

/** Cheap workloads the fuzzer mixes; all exercise the allocator's
 *  irregular or affine paths at quick scale in well under a second. */
const std::vector<std::string> &
mixPool()
{
    static const std::vector<std::string> pool = {
        "vecadd",    "link_list",  "hash_join",
        "bin_tree",  "pathfinder", "churn_list"};
    return pool;
}

bool
hexish(char c)
{
    return std::isxdigit(static_cast<unsigned char>(c)) || c == 'x' ||
           c == 'X';
}

/**
 * First line of @p raw with every alphanumeric token that is made of
 * hex/decimal digits, contains at least one digit, and is at least
 * @p min_len long collapsed to '#'. min_len 5 keeps bank/pool ids
 * readable while erasing addresses, cycle counts and host pointers;
 * min_len 1 erases every number (the coarse shrink-predicate class).
 */
std::string
collapseNumbers(const std::string &raw, std::size_t min_len)
{
    const std::string line = raw.substr(0, raw.find('\n'));
    std::string out;
    out.reserve(line.size());
    std::size_t i = 0;
    while (i < line.size()) {
        const unsigned char uc = static_cast<unsigned char>(line[i]);
        if (std::isalnum(uc) || line[i] == '_') {
            std::size_t j = i;
            bool has_digit = false;
            bool all_hex = true;
            while (j < line.size()) {
                const unsigned char jc =
                    static_cast<unsigned char>(line[j]);
                if (!std::isalnum(jc) && line[j] != '_')
                    break;
                has_digit |= std::isdigit(jc) != 0;
                all_hex &= hexish(line[j]);
                ++j;
            }
            if (has_digit && all_hex && j - i >= min_len)
                out += '#';
            else
                out.append(line, i, j - i);
            i = j;
        } else {
            out += line[i++];
        }
    }
    if (out.size() > 240)
        out.resize(240);
    return out;
}

} // namespace

std::string
normalizeSignature(const std::string &raw)
{
    return collapseNumbers(raw, 5);
}

Verdict
runOracle(const serve::ServeOptions &opts)
{
    Verdict v;
    try {
        const serve::ServeReport report = serve::runServe(opts);
        if (!report.allValid) {
            v.failed = true;
            v.errorType = "invalid";
            v.signature = "a completed request failed workload "
                          "self-validation";
            v.klass = "invalid";
        }
    } catch (const simcheck::AuditError &e) {
        v.failed = true;
        v.errorType = "audit";
        if (!e.report().empty()) {
            const simcheck::Violation &viol = e.report().front();
            v.signature = viol.component + "/" + viol.check + ": " +
                          normalizeSignature(viol.message);
            v.klass = "audit:" + viol.component + "/" + viol.check;
        } else {
            v.signature = normalizeSignature(e.what());
            v.klass = "audit";
        }
    } catch (const simcheck::LivelockError &e) {
        v.failed = true;
        v.errorType = "livelock";
        v.signature = normalizeSignature(e.what());
        v.klass = "livelock";
    } catch (const PanicError &e) {
        v.failed = true;
        v.errorType = "panic";
        v.signature = normalizeSignature(e.what());
        v.klass = "panic:" + collapseNumbers(e.what(), 1);
    } catch (const FatalError &e) {
        v.failed = true;
        v.errorType = "fatal";
        v.signature = normalizeSignature(e.what());
        v.klass = "fatal:" + collapseNumbers(e.what(), 1);
    }
    return v;
}

Campaign
generateCampaign(const FuzzOptions &f, std::uint32_t index)
{
    Rng rng(Rng::substreamSeed(f.seed, campaignStreamBase + index));
    Campaign c;
    c.index = index;
    serve::ServeOptions &o = c.opts;
    o.quick = f.quick;
    o.seed = Rng::substreamSeed(f.seed, serveSeedStreamBase + index);
    o.allocOpts.seed =
        Rng::substreamSeed(f.seed, allocSeedStreamBase + index);
    o.machine.simcheck.audit = true;
    o.machine.simcheck.auditPeriodEpochs = 16;
    if (f.watchdogStallEpochs)
        o.machine.simcheck.watchdogStallEpochs = f.watchdogStallEpochs;

    const auto &pool = mixPool();
    const std::size_t numClasses = 1 + rng.below(2);
    o.classes.clear();
    for (std::size_t k = 0; k < numClasses; ++k) {
        serve::ServeClass cls;
        cls.workload = pool[rng.below(pool.size())];
        cls.weight = 1.0 + static_cast<double>(rng.below(3));
        cls.maxRetries = 1 + static_cast<std::uint32_t>(rng.below(4));
        cls.retryBackoff = 20'000 + rng.below(80'000);
        cls.giveUpAfter = 8'000'000 + rng.below(24'000'000);
        o.classes.push_back(cls);
    }
    o.numRequests = 6 + static_cast<std::uint32_t>(rng.below(10));
    o.arrivalsPerMcycle = 1.0 + rng.uniform() * 7.0;
    o.burstiness = rng.chance(0.5) ? rng.uniform() * 0.8 : 0.0;
    o.slots = 1 + static_cast<std::uint32_t>(rng.below(3));
    o.queueCapacity = 2 + static_cast<std::uint32_t>(rng.below(6));
    o.maxCycles = 2'000'000'000ULL;
    o.reaffinity = !rng.chance(0.1);

    // Fault bursts: clustered in time (one burst window) and mesh
    // space (one anchor tile per burst). Kills walk the anchor bank
    // and its next-in-order neighbours — the default spare chain — so
    // spare-of-spare shapes occur organically.
    const std::uint32_t meshX = o.machine.meshX;
    const std::uint32_t meshY = o.machine.meshY;
    const std::uint32_t numBanks = o.machine.numBanks();
    const std::uint32_t maxKills = numBanks / 2;
    std::uint32_t kills = 0;
    std::vector<sim::TimedFault> sched;
    const std::uint32_t numBursts =
        1 + static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t b = 0; b < numBursts; ++b) {
        const Cycles base = 100'000 + rng.below(40'000'000);
        const std::uint32_t ax =
            static_cast<std::uint32_t>(rng.below(meshX));
        const std::uint32_t ay =
            static_cast<std::uint32_t>(rng.below(meshY));
        const BankId anchor = ay * meshX + ax;
        const std::uint32_t events =
            1 + static_cast<std::uint32_t>(rng.below(4));
        for (std::uint32_t e = 0; e < events; ++e) {
            sim::TimedFault ev;
            ev.atCycle = base + rng.below(250'000);
            std::uint64_t roll = rng.below(10);
            if (roll < 5 && kills >= maxKills)
                roll = 8; // kill budget spent: degrade instead
            if (roll >= 5 && roll < 8 && (meshX < 3 || meshY < 3))
                roll = 8; // no interior tile: NACK instead
            if (roll < 5) {
                ev.kind = sim::FaultKind::killBank;
                ev.target = (anchor + static_cast<std::uint32_t>(
                                          rng.below(3))) %
                            numBanks;
                ++kills;
            } else if (roll < 8) {
                // Correlated degradation: a link of an interior tile
                // adjacent to the anchor (interior tiles have all
                // four directions real).
                const auto clampi = [](std::int64_t v, std::int64_t lo,
                                       std::int64_t hi) {
                    return std::max(lo, std::min(hi, v));
                };
                const std::uint32_t tx = static_cast<std::uint32_t>(
                    clampi(static_cast<std::int64_t>(ax) +
                               static_cast<std::int64_t>(rng.below(3)) -
                               1,
                           1, static_cast<std::int64_t>(meshX) - 2));
                const std::uint32_t ty = static_cast<std::uint32_t>(
                    clampi(static_cast<std::int64_t>(ay) +
                               static_cast<std::int64_t>(rng.below(3)) -
                               1,
                           1, static_cast<std::int64_t>(meshY) - 2));
                ev.kind = sim::FaultKind::degradeLink;
                ev.target = (ty * meshX + tx) * 4 +
                            static_cast<std::uint32_t>(rng.below(4));
                ev.factor = 1u << (1 + rng.below(10)); // 2..1024
            } else {
                // NACK storm: a start/stop pair.
                ev.kind = sim::FaultKind::nackStorm;
                ev.target =
                    100 + static_cast<std::uint32_t>(rng.below(801));
                sched.push_back(ev);
                ev.target = 0;
                ev.atCycle += 200'000 + rng.below(2'000'000);
            }
            sched.push_back(ev);
        }
    }
    std::stable_sort(sched.begin(), sched.end(),
                     [](const sim::TimedFault &a,
                        const sim::TimedFault &b) {
                         return a.atCycle < b.atCycle;
                     });
    o.faultSchedule = std::move(sched);
    return c;
}

std::vector<Campaign>
generateMatrix(const FuzzOptions &f)
{
    std::vector<Campaign> camps;
    camps.reserve(f.campaigns);
    for (std::uint32_t i = 0; i < f.campaigns; ++i)
        camps.push_back(generateCampaign(f, i));
    return camps;
}

FuzzReport
runFuzz(const FuzzOptions &f, const std::vector<Campaign> &camps)
{
    if (camps.empty())
        SIM_FATAL("chaos", "a fuzz run needs >= 1 campaign");
    const unsigned jobs = f.jobs ? f.jobs : 1;

    // Phase 1: judge every campaign. runSweep delivers verdicts in
    // campaign order at any job count.
    prof::progressSetGoal(camps.size());
    std::vector<std::function<Verdict()>> points;
    points.reserve(camps.size());
    for (const Campaign &c : camps) {
        points.push_back([&c] {
            Verdict v = runOracle(c.opts);
            prof::progressAdvance(1);
            return v;
        });
    }
    const std::vector<Verdict> verdicts =
        harness::runSweep<Verdict>(jobs, points);

    FuzzReport rep;
    rep.campaigns = static_cast<std::uint32_t>(camps.size());
    rep.results.resize(camps.size());
    std::vector<std::size_t> failing;
    for (std::size_t i = 0; i < camps.size(); ++i) {
        CampaignResult &r = rep.results[i];
        r.index = camps[i].index;
        r.schedule = sim::formatFaultSchedule(camps[i].opts.faultSchedule);
        r.verdict = verdicts[i];
        if (r.verdict.failed)
            failing.push_back(i);
    }
    rep.failures = static_cast<std::uint32_t>(failing.size());

    // Phase 2: shrink the failures. Each shrink is sequential and
    // self-contained, so the failures shrink in parallel without
    // affecting each other's outcome.
    struct Shrunk
    {
        Campaign campaign;
        Verdict verdict;
        std::uint32_t runs = 0;
    };
    std::vector<std::function<Shrunk()>> shrinkPoints;
    shrinkPoints.reserve(failing.size());
    for (const std::size_t i : failing) {
        const Campaign &camp = camps[i];
        const Verdict &v = verdicts[i];
        shrinkPoints.push_back([&camp, &v] {
            Shrunk s;
            s.campaign = shrinkCampaign(camp, v, &s.runs);
            s.verdict = runOracle(s.campaign.opts);
            return s;
        });
    }
    const std::vector<Shrunk> shrunk =
        harness::runSweep<Shrunk>(jobs, shrinkPoints);
    for (std::size_t k = 0; k < failing.size(); ++k) {
        CampaignResult &r = rep.results[failing[k]];
        r.shrunk = shrunk[k].campaign;
        r.shrunkVerdict = shrunk[k].verdict;
        r.shrinkOracleRuns = shrunk[k].runs;
        if (!f.bundleDir.empty()) {
            r.bundlePath = f.bundleDir + "/repro-" +
                           std::to_string(r.index) + ".json";
            writeBundleFile(r.bundlePath, r.shrunk, r.shrunkVerdict);
        }
    }

    // Fingerprint the whole run so CI can diff two invocations.
    std::uint64_t d = simcheck::Digest::fnvBasis;
    const auto fold = [&d](const std::string &s) {
        d = simcheck::Digest::fnv1a(s.data(), s.size(), d);
    };
    for (const CampaignResult &r : rep.results) {
        fold(std::to_string(r.index));
        fold(r.schedule);
        fold(r.verdict.failed ? r.verdict.signature : "ok");
        if (r.verdict.failed) {
            fold(sim::formatFaultSchedule(r.shrunk.opts.faultSchedule));
            fold(r.shrunkVerdict.signature);
        }
    }
    rep.digest = d;
    return rep;
}

} // namespace affalloc::chaos
