/**
 * @file
 * Near-stream-computing execution model (§2). Workloads express their
 * access patterns as streams; the executor replays them against the
 * machine under one of the three evaluated modes:
 *
 *  - ExecMode::inCore   — streams run at the cores (loads/stores walk
 *    the private hierarchy; no offloading);
 *  - ExecMode::nearL3   — streams offload to L3 stream engines,
 *    migrate along their data, and forward operands to the consumer
 *    stream's bank (Fig. 1(b));
 *  - ExecMode::affAlloc — identical execution to nearL3; the layout
 *    produced by the affinity allocator is what changes the traffic.
 *
 * The executor provides bulk affine kernels (Fig. 2(a)) plus building
 * blocks for irregular workloads: migrating streams (edge scans,
 * pointer chasing per Fig. 2(b)) and indirect/atomic requests
 * (Fig. 2(c)).
 */

#ifndef AFFALLOC_NSC_STREAM_EXECUTOR_HH
#define AFFALLOC_NSC_STREAM_EXECUTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nsc/machine.hh"
#include "sim/types.hh"

namespace affalloc::nsc
{

/** One array operand of an affine stream kernel. */
struct AffineRef
{
    /** Simulated base address of element 0. */
    Addr simBase = 0;
    /** Element size in bytes. */
    std::uint32_t elemSize = 4;
    /** Access element [i + offsetElems] at iteration i (stencils). */
    std::int64_t offsetElems = 0;
};

/**
 * A stream that walks memory and migrates between L3 banks as its
 * access pattern crosses interleave boundaries (NSC modes), or issues
 * from a fixed core (in-core mode). Used for edge-array scans and
 * pointer chasing.
 */
class MigratingStream
{
  public:
    /** @param owner core that configured the stream. */
    explicit MigratingStream(CoreId owner = 0) : owner_(owner) {}

    /** Current bank the stream executes at (NSC modes). */
    BankId currentBank() const { return bank_; }
    /** Owning core. */
    CoreId owner() const { return owner_; }
    /** Accumulated serial-chain latency since reset. */
    double chainLatency() const { return chain_; }
    /** Reset the chain accumulator (new dependence chain). */
    void resetChain() { chain_ = 0.0; }
    /**
     * Whether this stream exhausted its offload retries and now
     * executes at its owning core despite an NSC mode (graceful
     * degradation under offload rejection). Cleared by configure().
     */
    bool fellBackInCore() const { return inCoreFallback_; }

  private:
    friend class StreamExecutor;
    CoreId owner_;
    BankId bank_ = invalidBank;
    double chain_ = 0.0;
    Addr lastLine_ = invalidAddr;
    std::uint32_t sinceCredit_ = 0;
    bool inCoreFallback_ = false;
    /** Tracer lane id while a lifetime span is open (0 = untraced). */
    std::uint32_t traceId_ = 0;
};

/**
 * Executes stream programs against a Machine under a mode. Stateless
 * apart from configuration; all hardware state lives in the Machine.
 */
class StreamExecutor
{
  public:
    /** Bind to a machine and execution mode. */
    StreamExecutor(Machine &m, ExecMode mode);
    ~StreamExecutor();

    StreamExecutor(const StreamExecutor &) = delete;
    StreamExecutor &operator=(const StreamExecutor &) = delete;

    /** The mode streams execute under. */
    ExecMode mode() const { return mode_; }
    /** Whether streams are offloaded to L3 (either NSC mode). */
    bool offloaded() const { return mode_ != ExecMode::inCore; }
    /** The machine. */
    Machine &machine() { return machine_; }

    // --------------------------------------------------- affine kernels
    /**
     * Run an elementwise affine kernel over @p num_elems iterations:
     * stores[m][i] = f(loads[k][i + offset_k]). Work is partitioned
     * statically across all cores; in NSC modes each load stream
     * forwards its lines to the store stream's bank and compute runs
     * on the bank's SE thread. Charges all traffic/occupancy and
     * advances simulated time in epochs.
     *
     * @param flops_per_elem compute intensity of f.
     */
    void affineKernel(const std::vector<AffineRef> &loads,
                      const std::vector<AffineRef> &stores,
                      std::uint64_t num_elems, double flops_per_elem,
                      const std::string &phase = "");

    // ------------------------------------------------ irregular streams
    /**
     * Sequential stream access (scan or pointer-chase step) by
     * @p stream at @p vaddr. In NSC modes the stream migrates to the
     * line's home bank when it moves (offload traffic) and accesses
     * locally; in-core mode issues from the owning core. Duplicate
     * accesses to the stream's last line are free (stream buffer).
     * Chain latency accumulates into the stream.
     */
    AccessOutcome streamStep(MigratingStream &stream, Addr vaddr,
                             std::uint32_t bytes, AccessType type,
                             bool sequential = true);

    /**
     * Indirect request from @p stream's current location to the home
     * bank of @p vaddr (A[B[i]] traffic, Fig. 1(c)). Does not migrate
     * the stream.
     */
    AccessOutcome indirect(MigratingStream &stream, Addr vaddr,
                           std::uint32_t bytes, AccessType type);

    /** Configure (offload) @p stream starting at the bank of @p vaddr. */
    void configure(MigratingStream &stream, Addr vaddr);

    /** Compute attached to @p stream at its current site. */
    void compute(const MigratingStream &stream, double flops);

  private:
    void maybeCredit(MigratingStream &stream);

    /**
     * Try to get an offload admitted at @p bank: retries NACKed
     * requests with capped exponential backoff per the fault plan,
     * accumulating the wasted round-trips and backoff into
     * @p penalty (cycles). Returns false when retries are exhausted
     * (the caller must fall back to in-core execution).
     */
    bool offloadAdmitted(CoreId core, BankId bank, double &penalty);

    /**
     * SimCheck audit: offload conservation — every offload attempt
     * either got admitted at a bank or fell back in-core; nothing is
     * left stranded (admitted but never configured, or neither).
     */
    void auditOffloads(simcheck::CheckContext &ctx) const;

    Machine &machine_;
    ExecMode mode_;

    /** Auditor registration id (unregistered in the destructor). */
    int auditId_ = 0;
    /** Cached config().simcheck.audit: gates per-offload SIM_CHECKs. */
    bool audit_ = false;
    // Offload-conservation shadow counters (simcheck audit).
    std::uint64_t offloadAttempts_ = 0;
    std::uint64_t offloadAdmits_ = 0;
    std::uint64_t offloadFallbacks_ = 0;
    /** Next stream-lifecycle trace id (ids are 1-based; 0 = untraced). */
    std::uint32_t nextStreamId_ = 0;
};

} // namespace affalloc::nsc

#endif // AFFALLOC_NSC_STREAM_EXECUTOR_HH
