/**
 * @file
 * Machine configuration, mirroring Table 2 of the paper ("System and
 * uarch Parameters"). One MachineConfig instance parameterizes the
 * whole simulated system; defaults reproduce the paper's setup.
 */

#ifndef AFFALLOC_SIM_CONFIG_HH
#define AFFALLOC_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/fault.hh"
#include "sim/simcheck.hh"
#include "sim/types.hh"

namespace affalloc::sim
{

/**
 * Process-wide default for MachineConfig::simThreads (starts at 1;
 * defined with the worker pool in worker_pool.cc). Flag parsing
 * installs overrides with setDefaultSimThreads() before machines are
 * configured.
 */
unsigned defaultSimThreads();
void setDefaultSimThreads(unsigned n);

/**
 * How bank ids map onto mesh tiles (§4.1 "Other Interleave Patterns":
 * more sophisticated interleavings "can be supported by changing how
 * L3 banks are numbered"). The 1D pool interleave of Eq. 1 walks bank
 * ids in order, so the numbering decides the physical walk pattern.
 */
enum class BankNumbering : std::uint8_t
{
    /** bank b at tile b (row-major; the paper's default). */
    rowMajor,
    /** Boustrophedon: odd mesh rows reversed, so bank b and b+1 are
     *  always adjacent (no row-wrap jumps). */
    snake,
    /** 2x2 quadrant blocks: consecutive banks fill a 2x2 tile block
     *  before moving on (a simple 2D pattern). */
    block2
};

/** Human-readable numbering name. */
const char *bankNumberingName(BankNumbering n);

/**
 * LLC management policy for I/O-class writes (the A4-style ablation).
 * Decides where a DMA/NIC write lands and how much tenant data it may
 * evict.
 */
enum class LlcIoPolicy : std::uint8_t
{
    /** Unrestricted DDIO: I/O writes allocate anywhere in the set. */
    ddio,
    /** Way-restricted: I/O allocation confined to llcIoWays ways. */
    wayRestrict,
    /** Bypass: I/O writes go straight to DRAM, never touch L3. */
    bypass
};

/** Human-readable LLC I/O policy name ("ddio"/"way"/"bypass"). */
const char *llcIoPolicyName(LlcIoPolicy p);

/**
 * How bank/link queue time is arbitrated between concurrently present
 * agent classes (the ROADMAP's per-class bank-bandwidth partitioning
 * and priority arbitration).
 */
enum class ClassArbMode : std::uint8_t
{
    /** No arbitration: classes share queues freely (classic model). */
    none,
    /** Weighted bandwidth partitioning by per-class shares. */
    partition,
    /** Strict priority by AgentClass order (ndc > host > io), with a
     *  yield penalty per higher-priority class present. */
    priority
};

/** Human-readable arbitration mode name. */
const char *classArbModeName(ClassArbMode m);

/**
 * Per-class arbitration configuration. With partition mode, a class
 * holding share s_c out of the total share of *present* classes sees
 * its bank/link service time scaled by (sum of present shares)/s_c —
 * the fluid model of a weighted round-robin queue. With priority
 * mode, a class is slowed by yieldPenalty for every higher-priority
 * class present. Both collapse to 1.0 when a class runs alone, so
 * single-class runs are digest-identical to the classic model.
 */
struct ClassArbConfig
{
    ClassArbMode mode = ClassArbMode::none;
    /** Bandwidth shares, indexed by AgentClass (ndc, host, io). */
    double share[numAgentClasses] = {1.0, 1.0, 1.0};
    /** Priority mode: fractional slowdown per higher class present. */
    double yieldPenalty = 0.5;
};

/**
 * Full system configuration (Table 2). All sizes in bytes, all
 * latencies in core cycles at the configured frequency.
 */
struct MachineConfig
{
    // ------------------------------------------------------------ system
    /** Core/uncore clock in GHz (Table 2: 2.0 GHz). */
    double clockGhz = 2.0;
    /** Mesh width (Table 2: 8x8 cores). */
    std::uint32_t meshX = 8;
    /** Mesh height. */
    std::uint32_t meshY = 8;

    // -------------------------------------------------------------- core
    /** Max scalar ops issued per cycle (8-issue OOO). */
    std::uint32_t coreIssueWidth = 8;
    /** SIMD lanes per vector op (AVX-512 on 4B floats). */
    std::uint32_t simdLanes = 16;
    /** Reorder-buffer entries; bounds in-core pointer-chase MLP. */
    std::uint32_t robEntries = 224;

    // ------------------------------------------------------------ caches
    /** Cache line size in bytes. */
    std::uint32_t lineSize = 64;
    /** L1 data cache capacity (32 KB). */
    std::uint32_t l1SizeBytes = 32 * 1024;
    /** L1 associativity. */
    std::uint32_t l1Assoc = 8;
    /** L1 hit latency. */
    Cycles l1Latency = 2;
    /** L1 data TLB entries (Table 2: 64-entry, 8-way). */
    std::uint32_t l1TlbEntries = 64;
    /** L1 TLB associativity. */
    std::uint32_t l1TlbAssoc = 8;
    /** Per-core L2 TLB entries (Table 2: 2k-entry, 16-way, 8 cy). */
    std::uint32_t l2TlbEntries = 2048;
    /** SEL3 TLB entries per bank (Table 2: 1k-entry, 16-way, 8 cy). */
    std::uint32_t seTlbEntries = 1024;
    /** L2/SEL3 TLB hit latency. */
    Cycles tlbLatency = 8;
    /** Page-table walk latency on a full TLB miss. */
    Cycles tlbWalkLatency = 40;
    /** Private L2 capacity (256 KB). */
    std::uint32_t l2SizeBytes = 256 * 1024;
    /** L2 associativity. */
    std::uint32_t l2Assoc = 16;
    /** L2 hit latency. */
    Cycles l2Latency = 16;
    /** Per-bank shared L3 capacity (1 MB/bank, 64 MB total). */
    std::uint32_t l3BankSizeBytes = 1024 * 1024;
    /** L3 associativity. */
    std::uint32_t l3Assoc = 16;
    /** L3 bank access latency. */
    Cycles l3Latency = 20;
    /** Default static-NUCA interleaving granularity (1 kB). */
    std::uint32_t l3DefaultInterleave = 1024;

    // --------------------------------------------------------------- NoC
    /** Link width in bytes per cycle (32 B bidirectional links). */
    std::uint32_t linkBytes = 32;
    /** Per-hop latency: 1-cycle link + pipelined 5-stage router. */
    Cycles hopLatency = 3;

    // -------------------------------------------------------------- DRAM
    /** Number of memory controllers (at mesh corners). */
    std::uint32_t dramChannels = 4;
    /** Aggregate DRAM bandwidth in GB/s (DDR4-3200 x4 = 25.6). */
    double dramTotalGBs = 25.6;
    /** DRAM access latency in cycles (~60 ns at 2 GHz). */
    Cycles dramLatency = 120;

    // ----------------------------------------------------- stream engines
    /** Max concurrent streams in the core stream engine. */
    std::uint32_t seCoreStreams = 12;
    /** Max concurrent streams per L3 stream engine. */
    std::uint32_t seL3Streams = 768;
    /** Near-stream compute initiation latency (cycles). */
    Cycles seComputeInitLatency = 4;
    /** Interleave override table entries per controller. */
    std::uint32_t iotEntries = 16;
    /** Bank-id-to-tile numbering scheme. */
    BankNumbering bankNumbering = BankNumbering::rowMajor;

    // ------------------------------------------------- traffic classes
    /** LLC management policy for I/O-class (DMA/NIC) writes. */
    LlcIoPolicy llcIoPolicy = LlcIoPolicy::ddio;
    /** Ways per set an I/O write may allocate under wayRestrict. */
    std::uint32_t llcIoWays = 2;
    /** Bank/link queue arbitration between agent classes. */
    ClassArbConfig classArb;

    // ------------------------------------------------- simulation control
    /** Elements simulated per epoch for bulk kernels. */
    std::uint32_t epochChunk = 1 << 14;
    /**
     * Capacity of each interleave pool segment in bytes; 0 means the
     * full 1 TB virtual segment backs every pool (effectively
     * unlimited). Small values exercise the allocator's fallback
     * ladder (pool -> other interleavings -> plain heap).
     */
    std::uint64_t poolCapacityBytes = 0;
    /**
     * Run the memory/NoC lookup structures on their reference (slow)
     * paths: no software TLB in front of the page table, linear IOT
     * scans, coordinate-walked NoC routes.
     * Simulated behaviour is identical either way — the
     * digest-equivalence regression test runs both and asserts
     * identical digests; this flag exists only for that test and for
     * debugging suspected fast-path divergence.
     */
    bool referencePaths = false;

    // ------------------------------------------------ parallel simulation
    /**
     * Worker threads for shard-parallel epoch replay (1 = the classic
     * serial simulator). Parallelism is an implementation detail of
     * endEpoch(): results are bit-identical at any thread count, so
     * this knob trades host cores for wall-clock only. The default
     * follows the process-wide setting installed by --sim-threads /
     * AFFALLOC_SIM_THREADS parsing. Kept deliberately uncapped here
     * (only >= 1 is validated) so programmatic configs — e.g. the
     * 7-thread shard-split test — work on any host; strict host-aware
     * validation lives at the flag parsers.
     */
    std::uint32_t simThreads = defaultSimThreads();

    // ----------------------------------------------------- fault injection
    /** Fault campaign drawn at machine construction (default: none). */
    FaultConfig faults;

    // ------------------------------------------------------------ simcheck
    /** Invariant auditing / watchdog knobs (env vars set defaults). */
    ::affalloc::simcheck::SimCheckConfig simcheck =
        ::affalloc::simcheck::SimCheckConfig::fromEnv();

    /** Total tiles (== cores == L3 banks). */
    std::uint32_t numTiles() const { return meshX * meshY; }
    /** Total L3 banks. */
    std::uint32_t numBanks() const { return numTiles(); }
    /** Total L3 capacity across banks. */
    std::uint64_t
    l3TotalBytes() const
    {
        return std::uint64_t(l3BankSizeBytes) * numBanks();
    }
    /** Per-channel DRAM bandwidth in bytes per core cycle. */
    double
    dramChannelBytesPerCycle() const
    {
        return dramTotalGBs / dramChannels / clockGhz;
    }
    /** NoC flit payload size in bytes. */
    std::uint32_t flitBytes() const { return linkBytes; }

    /** Render the configuration as a Table 2-style description. */
    std::string toString() const;

    /** Validate invariants (power-of-two sizes etc.); fatal() if bad. */
    void validate() const;
};

} // namespace affalloc::sim

#endif // AFFALLOC_SIM_CONFIG_HH
