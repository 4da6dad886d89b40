/**
 * @file
 * Host-pointer <-> simulated-virtual-address registry. The library is
 * execution-driven: workload data lives in real host memory, while
 * the timing model reasons about simulated addresses. Every
 * allocation registers its host range against its simulated range so
 * either direction can be resolved.
 */

#ifndef AFFALLOC_MEM_ADDRESS_SPACE_HH
#define AFFALLOC_MEM_ADDRESS_SPACE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace affalloc::mem
{

/** One registered allocation. */
struct HostRange
{
    /** Host address of the first byte. */
    std::uintptr_t hostStart = 0;
    /** One past the last host byte. */
    std::uintptr_t hostEnd = 0;
    /** Simulated virtual address of the first byte. */
    Addr simStart = 0;
};

/**
 * Registry of disjoint host ranges, indexed by host granule. Each
 * range is cut at the granule boundaries of one of three levels (64 B
 * lines for ranges up to 128 B, 4 kB pages below 4 MB, 2 MB above),
 * and each cut piece is one 16 B entry of that level's open-addressed
 * hash table, keyed by granule number, holding the piece's host start,
 * length and simulated start inline. A lookup probes the granule of
 * the pointer in each non-empty level, finest first, and stops at the
 * piece that contains it; pieces are disjoint, so containment alone
 * identifies the hit. A range therefore costs at most a few entries
 * beyond bytes / granule. Each table is resized when a registration
 * would take its load past 1/2 or finds it below 1/8, so it stays
 * sized to its live pieces. Lookups never mutate state.
 *
 * Host addresses must lie below 2^48 and simulated addresses below
 * 2^52 (both hold for every user-space pointer and every segment of
 * the simulated layout); registration rejects anything else.
 */
class AddressSpace
{
  public:
    /** Register a host range backing simulated range @p sim_start. */
    void registerRange(const void *host_ptr, std::size_t bytes,
                       Addr sim_start);

    /** Remove the range starting exactly at @p host_ptr. */
    void unregisterRange(const void *host_ptr);

    /** Simulated address of @p host_ptr; fatal() if unregistered. */
    Addr simAddrOf(const void *host_ptr) const;

    /** Simulated address, or invalidAddr if unregistered. */
    Addr trySimAddrOf(const void *host_ptr) const;

    /** The range starting exactly at @p host_ptr, if any. */
    std::optional<HostRange> rangeStartingAt(const void *host_ptr) const;

    /** The range containing @p host_ptr, if any. */
    std::optional<HostRange> rangeContaining(const void *host_ptr) const;

    /** Number of registered ranges. */
    std::size_t size() const { return numRanges_; }

    /**
     * Number of registered ranges whose simulated start address lies
     * in [sim_lo, sim_hi). Linear in the index size — meant for
     * hygiene assertions at slot recycle boundaries, not hot paths.
     * The serving front-end uses it to prove a freed tenant arena left
     * no host ranges behind before the arena is handed to the next
     * request.
     */
    std::size_t numRangesInSimWindow(Addr sim_lo, Addr sim_hi) const;

  private:
    /**
     * The part of one range inside one granule. Packed into two words:
     * host = start (48 bits) | first-piece flag | low 15 bits of
     * (length - 1); sim = simulated start (52 bits) | high 12 bits of
     * (length - 1). An all-zero host word marks an empty slot.
     */
    struct Piece
    {
        std::uint64_t host = 0;
        std::uint64_t sim = 0;

        static Piece make(std::uintptr_t start, std::uint64_t len,
                          Addr sim_start, bool first);
        bool empty() const { return host == 0; }
        std::uintptr_t start() const { return host & hostMask; }
        bool first() const { return (host >> hostBits) & 1; }
        std::uint64_t
        len() const
        {
            return ((host >> (hostBits + 1)) |
                    ((sim >> simBits) << lenLowBits)) +
                   1;
        }
        Addr simStart() const { return sim & simMask; }
        std::uintptr_t end() const { return start() + len(); }
    };

    /** One granularity: a linear-probing table of pieces. */
    struct Level
    {
        /** log2 of the granule size. */
        int shift;
        /** Power-of-two slot array (empty before the first piece). */
        std::vector<Piece> slots{};
        /** log2(slots.size()). */
        int bits = 0;
        /** Live pieces. */
        std::size_t count = 0;

        /** Home slot of granule @p g. */
        std::size_t
        home(std::uint64_t g) const
        {
            return static_cast<std::size_t>(
                (g * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
        }
        /** Slot index of the piece containing @p p, or npos. */
        std::size_t find(std::uintptr_t p) const;
        /** Whether any piece intersects [start, end). */
        bool intersects(std::uintptr_t start, std::uintptr_t end) const;
        void insert(const Piece &piece);
        /** Backward-shift deletion of slot @p i. */
        void erase(std::size_t i);
        /** Rehash to 2^@p new_bits slots. */
        void rehash(int new_bits);
    };

    static constexpr int hostBits = 48;
    static constexpr int simBits = 52;
    static constexpr int lenLowBits = 63 - hostBits;
    static constexpr std::uint64_t hostMask =
        (std::uint64_t(1) << hostBits) - 1;
    static constexpr std::uint64_t simMask =
        (std::uint64_t(1) << simBits) - 1;
    static constexpr std::size_t npos = ~std::size_t(0);

    /** The level a range of @p bytes is indexed at. */
    Level &levelFor(std::size_t bytes);
    /** The piece containing @p p and its level, or {nullptr, nullptr}. */
    std::pair<const Level *, const Piece *> find(std::uintptr_t p) const;
    /** The whole range that piece @p e of level @p lv belongs to. */
    HostRange rangeOf(const Level &lv, const Piece &e) const;

    /** Lines, pages, 2 MB blocks. */
    std::array<Level, 3> levels_{{{6}, {12}, {21}}};
    std::size_t numRanges_ = 0;
};

} // namespace affalloc::mem

#endif // AFFALLOC_MEM_ADDRESS_SPACE_HH
