/**
 * @file
 * Chaos-engine tests: fuzzer determinism (same seed => byte-identical
 * campaigns, verdicts and digests at any job count), signature
 * normalization, ddmin shrinking, the spare-of-spare keying
 * regression, repro-bundle round-trip + replay, and the whole find ->
 * shrink -> bundle -> replay loop on a campaign that really fails.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "chaos/chaos.hh"
#include "sim/fault.hh"
#include "sim/log.hh"

using namespace affalloc;

namespace
{

std::string
scheduleOf(const chaos::Campaign &c)
{
    return sim::formatFaultSchedule(c.opts.faultSchedule);
}

/**
 * A campaign that fails instantly and deterministically: the fault
 * schedule names a bank that does not exist, which the serving
 * engine's parse-time validation rejects before any simulation. The
 * decoy events are all valid; only the bad kill is load-bearing, so
 * the shrinker must isolate it. Each oracle run costs microseconds,
 * which keeps the ddmin unit test fast.
 */
chaos::Campaign
invalidTargetCampaign()
{
    chaos::Campaign c;
    c.opts.quick = true;
    c.opts.numRequests = 8;
    c.opts.maxCycles = 2'000'000'000ULL;
    serve::ServeClass cls;
    cls.workload = "vecadd";
    c.opts.classes = {cls};
    c.opts.faultSchedule = sim::parseFaultSchedule(
        "link:20@100000x4,bank:3@200000,nack:250@300000,"
        "bank:9999@400000,nack:0@500000,link:21@600000x2");
    return c;
}

/**
 * The campaign that found the spare-of-spare keying defect: slots
 * freed while their home bank was dead were keyed at that bank's
 * spare of the moment, and a later kill of the spare (with the
 * re-affinity re-target that follows) stranded them on a list their
 * bank no longer served, which the free-list audit reported.
 */
chaos::Campaign
spareOfSpareCampaign()
{
    chaos::Campaign c;
    serve::ServeOptions &o = c.opts;
    o.quick = true;
    o.seed = 1337;
    o.allocOpts.seed = 1338;
    o.machine.simcheck.audit = true;
    o.machine.simcheck.auditPeriodEpochs = 8;
    serve::ServeClass churn;
    churn.workload = "churn_list";
    o.classes = {churn};
    o.numRequests = 20;
    // Arrivals far denser than the service rate keep a backlog
    // queued, so faults land mid-request instead of being idle-skipped
    // to a request boundary where no tenant holds dead-bank slots.
    o.arrivalsPerMcycle = 50.0;
    o.slots = 2;
    o.queueCapacity = 24;
    // Single-epoch quanta: the fault hook runs between every epoch, so
    // the kill pair lands inside one request's churn rounds.
    o.quantumEpochs = 1;
    o.maxCycles = 2'000'000'000ULL;
    o.reaffinity = true;
    // A tight kill pair mid-churn (bank 27, then its spare bank 0)
    // buried in decoy link degradations and a NACK storm.
    o.faultSchedule = sim::parseFaultSchedule(
        "link:20@150000x4,nack:400@200000,bank:27@250000,"
        "bank:0@270000,nack:0@290000,link:74@300000x8,"
        "link:75@320000x2");
    return c;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

// --------------------------------------------------------- signatures

TEST(ChaosSignature, CollapsesLongNumbersKeepsShortOnes)
{
    EXPECT_EQ(chaos::normalizeSignature(
                  "pool 3: slot sim 7f00deadbeef on bank 27's free "
                  "list but served by bank 9"),
              "pool 3: slot sim # on bank 27's free list but served "
              "by bank 9");
    EXPECT_EQ(chaos::normalizeSignature("stalled for 100000 epochs"),
              "stalled for # epochs");
    // Hex with 0x prefix collapses too.
    EXPECT_EQ(chaos::normalizeSignature("addr 0x1f3a8 bad"),
              "addr # bad");
}

TEST(ChaosSignature, FirstLineOnlyAndCapped)
{
    EXPECT_EQ(chaos::normalizeSignature("first\nsecond line"), "first");
    const std::string longMsg(1000, 'a');
    EXPECT_LE(chaos::normalizeSignature(longMsg).size(), 240u);
}

TEST(ChaosSignature, WordsWithDigitsSurvive)
{
    // "hotspot3d" has a digit but also non-hex letters: kept.
    EXPECT_EQ(chaos::normalizeSignature("workload hotspot3d invalid"),
              "workload hotspot3d invalid");
}

// -------------------------------------------------------- determinism

TEST(ChaosFuzzer, CampaignGenerationIsDeterministic)
{
    chaos::FuzzOptions f;
    f.seed = 42;
    for (std::uint32_t i = 0; i < 8; ++i) {
        const chaos::Campaign a = chaos::generateCampaign(f, i);
        const chaos::Campaign b = chaos::generateCampaign(f, i);
        EXPECT_EQ(scheduleOf(a), scheduleOf(b));
        EXPECT_EQ(a.opts.seed, b.opts.seed);
        EXPECT_EQ(a.opts.allocOpts.seed, b.opts.allocOpts.seed);
        EXPECT_EQ(a.opts.numRequests, b.opts.numRequests);
        EXPECT_EQ(a.opts.arrivalsPerMcycle, b.opts.arrivalsPerMcycle);
        ASSERT_EQ(a.opts.classes.size(), b.opts.classes.size());
        for (std::size_t k = 0; k < a.opts.classes.size(); ++k)
            EXPECT_EQ(a.opts.classes[k].workload,
                      b.opts.classes[k].workload);
    }
    // A different seed moves the campaigns.
    chaos::FuzzOptions g;
    g.seed = 43;
    bool differs = false;
    for (std::uint32_t i = 0; i < 8 && !differs; ++i)
        differs = scheduleOf(chaos::generateCampaign(f, i)) !=
                  scheduleOf(chaos::generateCampaign(g, i));
    EXPECT_TRUE(differs);
}

TEST(ChaosFuzzer, CampaignsRespectBounds)
{
    chaos::FuzzOptions f;
    f.seed = 7;
    for (std::uint32_t i = 0; i < 32; ++i) {
        const chaos::Campaign c = chaos::generateCampaign(f, i);
        const std::uint32_t banks = c.opts.machine.numBanks();
        std::uint32_t kills = 0;
        for (const sim::TimedFault &ev : c.opts.faultSchedule) {
            EXPECT_LE(ev.atCycle, c.opts.maxCycles);
            if (ev.kind == sim::FaultKind::killBank) {
                EXPECT_LT(ev.target, banks);
                ++kills;
            } else if (ev.kind == sim::FaultKind::degradeLink) {
                EXPECT_GE(ev.factor, 2u);
                EXPECT_LE(ev.factor, sim::maxLinkDegradeFactor);
            } else {
                EXPECT_LE(ev.target, 1000u);
            }
        }
        // Never kills enough banks to exhaust the machine outright.
        EXPECT_LE(kills, banks / 2);
        // The generated schedule round-trips the CLI grammar.
        EXPECT_EQ(sim::formatFaultSchedule(
                      sim::parseFaultSchedule(scheduleOf(c))),
                  scheduleOf(c));
    }
}

TEST(ChaosFuzzer, FuzzReportIdenticalAtAnyJobCount)
{
    chaos::FuzzOptions f;
    f.seed = 5;
    f.campaigns = 3;
    f.jobs = 1;
    const chaos::FuzzReport one = chaos::runFuzz(f, chaos::generateMatrix(f));
    f.jobs = 4;
    const chaos::FuzzReport four =
        chaos::runFuzz(f, chaos::generateMatrix(f));
    EXPECT_EQ(one.digest, four.digest);
    EXPECT_EQ(one.failures, four.failures);
    ASSERT_EQ(one.results.size(), four.results.size());
    for (std::size_t i = 0; i < one.results.size(); ++i) {
        EXPECT_EQ(one.results[i].schedule, four.results[i].schedule);
        EXPECT_EQ(one.results[i].verdict.failed,
                  four.results[i].verdict.failed);
        EXPECT_EQ(one.results[i].verdict.signature,
                  four.results[i].verdict.signature);
    }
}

// ----------------------------------------------------------- shrinking

TEST(ChaosShrink, IsolatesTheLoadBearingEvent)
{
    const chaos::Campaign c = invalidTargetCampaign();
    const chaos::Verdict v = chaos::runOracle(c.opts);
    ASSERT_TRUE(v.failed);
    EXPECT_EQ(v.errorType, "fatal");

    std::uint32_t runs = 0;
    const chaos::Campaign small = chaos::shrinkCampaign(c, v, &runs);
    ASSERT_EQ(small.opts.faultSchedule.size(), 1u);
    EXPECT_EQ(small.opts.faultSchedule[0].target, 9999u);
    EXPECT_EQ(small.opts.numRequests, 1u);
    EXPECT_GT(runs, 0u);

    // The shrunk campaign still fails identically.
    const chaos::Verdict sv = chaos::runOracle(small.opts);
    EXPECT_TRUE(sv.failed);
    EXPECT_EQ(sv.klass, v.klass);
}

TEST(ChaosShrink, IsDeterministic)
{
    const chaos::Campaign c = invalidTargetCampaign();
    const chaos::Verdict v = chaos::runOracle(c.opts);
    ASSERT_TRUE(v.failed);
    std::uint32_t runsA = 0;
    std::uint32_t runsB = 0;
    const chaos::Campaign a = chaos::shrinkCampaign(c, v, &runsA);
    const chaos::Campaign b = chaos::shrinkCampaign(c, v, &runsB);
    EXPECT_EQ(scheduleOf(a), scheduleOf(b));
    EXPECT_EQ(a.opts.numRequests, b.opts.numRequests);
    EXPECT_EQ(a.opts.maxCycles, b.opts.maxCycles);
    EXPECT_EQ(runsA, runsB);
}

TEST(ChaosShrink, RefusesPassingCampaign)
{
    const chaos::Campaign c = invalidTargetCampaign();
    chaos::Verdict passing;
    EXPECT_THROW(chaos::shrinkCampaign(c, passing), FatalError);
}

// -------------------------------------------- spare-of-spare regression

TEST(ChaosRegression, SpareOfSpareKillCampaignPassesTheOracle)
{
    const chaos::Verdict v = chaos::runOracle(spareOfSpareCampaign().opts);
    EXPECT_FALSE(v.failed) << v.signature;
}

// ------------------------------------------------------------- bundles

TEST(ChaosBundle, RoundTripsEveryField)
{
    const chaos::Campaign c = spareOfSpareCampaign();
    chaos::Verdict v;
    v.failed = true;
    v.errorType = "audit";
    v.klass = "audit:alloc/freelist-integrity";
    v.signature = "alloc/freelist-integrity: pool 3: \"quoted\"\tsig";

    const std::string json = chaos::formatBundle(c, v);
    chaos::Verdict back;
    const chaos::Campaign parsed = chaos::parseBundle(json, &back);

    EXPECT_EQ(parsed.index, c.index);
    EXPECT_EQ(parsed.opts.mode, c.opts.mode);
    EXPECT_EQ(scheduleOf(parsed), scheduleOf(c));
    EXPECT_EQ(parsed.opts.seed, c.opts.seed);
    EXPECT_EQ(parsed.opts.allocOpts.seed, c.opts.allocOpts.seed);
    EXPECT_EQ(parsed.opts.numRequests, c.opts.numRequests);
    EXPECT_EQ(parsed.opts.arrivalsPerMcycle, c.opts.arrivalsPerMcycle);
    EXPECT_EQ(parsed.opts.burstiness, c.opts.burstiness);
    EXPECT_EQ(parsed.opts.slots, c.opts.slots);
    EXPECT_EQ(parsed.opts.queueCapacity, c.opts.queueCapacity);
    EXPECT_EQ(parsed.opts.quantumEpochs, c.opts.quantumEpochs);
    EXPECT_EQ(parsed.opts.maxCycles, c.opts.maxCycles);
    EXPECT_EQ(parsed.opts.quick, c.opts.quick);
    EXPECT_EQ(parsed.opts.reaffinity, c.opts.reaffinity);
    EXPECT_EQ(parsed.opts.machine.simcheck.audit,
              c.opts.machine.simcheck.audit);
    EXPECT_EQ(parsed.opts.machine.simcheck.auditPeriodEpochs,
              c.opts.machine.simcheck.auditPeriodEpochs);
    ASSERT_EQ(parsed.opts.classes.size(), c.opts.classes.size());
    for (std::size_t k = 0; k < c.opts.classes.size(); ++k) {
        EXPECT_EQ(parsed.opts.classes[k].workload,
                  c.opts.classes[k].workload);
        EXPECT_EQ(parsed.opts.classes[k].weight,
                  c.opts.classes[k].weight);
        EXPECT_EQ(parsed.opts.classes[k].maxRetries,
                  c.opts.classes[k].maxRetries);
        EXPECT_EQ(parsed.opts.classes[k].retryBackoff,
                  c.opts.classes[k].retryBackoff);
        EXPECT_EQ(parsed.opts.classes[k].giveUpAfter,
                  c.opts.classes[k].giveUpAfter);
    }
    EXPECT_EQ(back.errorType, v.errorType);
    EXPECT_EQ(back.klass, v.klass);
    EXPECT_EQ(back.signature, v.signature);
}

TEST(ChaosBundle, RejectsMalformedInput)
{
    EXPECT_THROW(chaos::parseBundle("{}"), FatalError);
    EXPECT_THROW(chaos::parseBundle("not json at all"), FatalError);
    // A wrong version, or an old bundle written before the free-list
    // keying had one path, is refused, not misread.
    const chaos::Campaign c = spareOfSpareCampaign();
    chaos::Verdict v;
    v.failed = true;
    const std::string json = chaos::formatBundle(c, v);
    const std::size_t at = json.find("\"version\": 2");
    ASSERT_NE(at, std::string::npos);
    for (const char *old : {"\"version\": 1", "\"version\": 9"}) {
        std::string bad = json;
        bad.replace(at, 12, old);
        EXPECT_THROW(chaos::parseBundle(bad), FatalError) << old;
    }
}

TEST(ChaosBundle, ReplayReproducesTheShrunkFailure)
{
    const chaos::Campaign failing = invalidTargetCampaign();
    const chaos::Verdict v = chaos::runOracle(failing.opts);
    ASSERT_TRUE(v.failed);
    const chaos::Campaign small = chaos::shrinkCampaign(failing, v);
    const chaos::Verdict sv = chaos::runOracle(small.opts);
    ASSERT_TRUE(sv.failed);

    const std::string path =
        testing::TempDir() + "/chaos-repro-test.json";
    chaos::writeBundleFile(path, small, sv);
    const chaos::ReplayResult r = chaos::replayBundleFile(path);
    EXPECT_TRUE(r.reproduced)
        << "expected [" << r.expected.signature << "] got ["
        << r.got.signature << "]";
    EXPECT_EQ(r.got.errorType, sv.errorType);
    EXPECT_EQ(r.got.signature, sv.signature);
    std::remove(path.c_str());
}

TEST(ChaosBundle, ReplayOfMissingFileIsAFatalError)
{
    EXPECT_THROW(chaos::replayBundleFile("/nonexistent/nope.json"),
                 FatalError);
}

// ------------------------------------------------------ full fuzz loop

TEST(ChaosFuzz, FailingCampaignIsFoundShrunkBundledAndReplayed)
{
    chaos::FuzzOptions f;
    f.jobs = 1;
    f.bundleDir = testing::TempDir() + "/chaos-fuzz";
    const chaos::FuzzReport rep =
        chaos::runFuzz(f, {invalidTargetCampaign()});
    EXPECT_EQ(rep.campaigns, 1u);
    ASSERT_EQ(rep.results.size(), 1u);
    EXPECT_NE(rep.digest, 0u);

    // Found, and shrunk to the one load-bearing event.
    EXPECT_EQ(rep.failures, 1u);
    const chaos::CampaignResult &r = rep.results[0];
    ASSERT_TRUE(r.verdict.failed);
    EXPECT_EQ(r.verdict.errorType, "fatal");
    ASSERT_TRUE(r.shrunkVerdict.failed);
    EXPECT_EQ(sim::formatFaultSchedule(r.shrunk.opts.faultSchedule),
              "bank:9999@400000");

    // Bundled and replayed. The bundle is the committed one CI replays
    // (tests/data/chaos/invalid-target.json), byte for byte. Its
    // signature names the source line of the fatal in
    // src/sim/fault.cc: when that line moves, commit the new text.
    ASSERT_FALSE(r.bundlePath.empty());
    const chaos::ReplayResult replay =
        chaos::replayBundleFile(r.bundlePath);
    EXPECT_TRUE(replay.reproduced);
    EXPECT_EQ(readFile(r.bundlePath),
              readFile(AFFALLOC_CHAOS_DATA_DIR "/invalid-target.json"));
    std::remove(r.bundlePath.c_str());
}

TEST(ChaosFuzz, ZeroCampaignsIsAConfigError)
{
    chaos::FuzzOptions f;
    f.campaigns = 0;
    EXPECT_THROW(chaos::runFuzz(f, chaos::generateMatrix(f)), FatalError);
}
