/**
 * @file
 * Successor generation for the explicit-state checker: the enabled
 * message deliveries and core accesses of one state, the
 * partial-order-reduction shortcut that collapses an expansion to a
 * single ample delivery, and the state invariants (SWMR, data value,
 * transient deadlock) every new state is checked against. Internal
 * to hg_verif; engine.cc owns the frontier, the visited set and the
 * workers that call it.
 */

#ifndef HIERAGEN_VERIF_EXPAND_HH
#define HIERAGEN_VERIF_EXPAND_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "verif/checker.hh"

namespace hieragen::verif
{

/** FNV-1a over an encoding, mixed with @p seed (the compaction seed
 *  for Stern–Dill signatures, 0 for exact-mode fingerprints). */
inline uint64_t
hashState(const char *data, size_t len, uint64_t seed)
{
    uint64_t h = 14695981039346656037ull ^ seed;
    for (size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

inline uint64_t
hashState(const std::string &enc, uint64_t seed)
{
    return hashState(enc.data(), enc.size(), seed);
}

/** Quiescent with exhausted budgets: a legitimate end state. */
bool isTerminalState(const System &sys, const SysState &st);

struct Violation
{
    ErrorKind kind = ErrorKind::None;
    std::string detail;
};

/**
 * State invariants: global SWMR, the data-value invariant, and the
 * empty-network transient deadlock. Returns the first violation, in
 * the order the checker has always reported them.
 */
std::optional<Violation> findViolation(const System &sys,
                                       const SysState &st);

/** One successor: executed by Expander::expand, then encoded, hashed
 *  and probed by the engine. Workers pool these across expansions so
 *  duplicate successors recycle their buffers. */
struct Successor
{
    SysState st;
    std::string enc;
    uint64_t hash = 0;
    std::string how;  ///< trace label (tracing runs only)
};

/** What one expansion produced: pool[0..count) hold its successors. */
struct Expansion
{
    size_t count = 0;
    bool ample = false;   ///< POR collapsed it to one delivery
    bool failed = false;  ///< a step hit a protocol error (`error`)
    std::string error;
};

struct PorContext;

class Expander
{
  public:
    Expander(const System &sys, const CheckOptions &opts);
    ~Expander();

    bool porEnabled() const { return por_ != nullptr; }

    /**
     * Execute every enabled successor of @p cur into @p pool, in the
     * fixed order the checker explores them: message deliveries by
     * index, then core accesses by leaf and access kind. Stops at the
     * first protocol error, leaving the successors executed before
     * it in the pool (the engine checks them first, so a violation
     * among them still wins). With partial-order reduction the
     * expansion may instead be one ample delivery. @p labels fills
     * each successor's trace label.
     */
    void expand(const SysState &cur, bool labels,
                std::vector<char> &mask, std::vector<Successor> &pool,
                Expansion &out) const;

  private:
    const System &sys_;
    const bool markReached_;
    const bool atomicTransactions_;
    std::unique_ptr<PorContext> por_;
};

} // namespace hieragen::verif

#endif // HIERAGEN_VERIF_EXPAND_HH
