#include "verif/expand.hh"

#include <array>
#include <unordered_map>

namespace hieragen::verif
{

namespace
{

/** ExecEnv that collects sends into a SysState and flags errors. */
class StateEnv : public hieragen::ExecEnv
{
  public:
    SysState *state = nullptr;
    bool failed = false;
    bool loadCalled = false;  ///< a DoLoad committed during the step
    std::string errorMsg;

    void
    send(const Msg &msg) override
    {
        state->insertMsg(msg);
    }

    uint8_t
    storeValue(NodeId) override
    {
        state->ghost = static_cast<uint8_t>(1 - state->ghost);
        return state->ghost;
    }

    void
    loadObserved(NodeId node, bool has_data, uint8_t) override
    {
        loadCalled = true;
        if (!has_data) {
            failed = true;
            errorMsg = "load committed without data at node " +
                       std::to_string(node);
        }
    }

    void
    error(const std::string &what) override
    {
        failed = true;
        errorMsg = what;
    }
};

} // namespace

bool
isTerminalState(const System &sys, const SysState &st)
{
    if (!st.msgs.empty())
        return false;
    for (size_t i = 0; i < st.blocks.size(); ++i) {
        if (!sys.nodes[i].machine->state(st.blocks[i].state).stable)
            return false;
    }
    return true;
}

std::optional<Violation>
findViolation(const System &sys, const SysState &st)
{
    // Global SWMR over leaf caches in *stable* states. A silently
    // upgradeable state (MESI E) counts as a writer.
    int writers = 0;
    int readers = 0;
    for (NodeId c : sys.leafCaches) {
        const Machine &m = *sys.nodes[c].machine;
        const State &s = m.state(st.blocks[c].state);
        if (!s.stable)
            continue;
        bool writable = s.perm == Perm::ReadWrite || s.silentUpgrade;
        if (writable)
            ++writers;
        else if (s.perm == Perm::Read)
            ++readers;
    }
    if (writers > 1 || (writers == 1 && readers > 0)) {
        return Violation{ErrorKind::Swmr,
                         "SWMR violated: " + std::to_string(writers) +
                             " writer(s), " + std::to_string(readers) +
                             " concurrent reader(s)"};
    }

    // Data-value invariant: stable readable copies hold the value of
    // the last committed store.
    for (NodeId c : sys.leafCaches) {
        const Machine &m = *sys.nodes[c].machine;
        const State &s = m.state(st.blocks[c].state);
        if (!s.stable || s.perm == Perm::None)
            continue;
        if (!st.blocks[c].hasData || st.blocks[c].data != st.ghost) {
            return Violation{ErrorKind::DataValue,
                             "node " + std::to_string(c) + " in " +
                                 s.name +
                                 " holds stale or missing data"};
        }
    }

    // A transient controller with an empty network can never make
    // progress again: responses only flow as reactions to messages.
    if (st.msgs.empty()) {
        for (size_t i = 0; i < st.blocks.size(); ++i) {
            const Machine &m = *sys.nodes[i].machine;
            if (!m.state(st.blocks[i].state).stable) {
                return Violation{
                    ErrorKind::Deadlock,
                    "node " + std::to_string(i) +
                        " stuck in transient state " +
                        m.state(st.blocks[i].state).name +
                        " with no messages in flight"};
            }
        }
    }
    return std::nullopt;
}

/**
 * Static per-System context for partial-order reduction (POR).
 *
 * The checker's interleaving explosion comes from delivering every
 * deliverable message from every state. Two deliveries to different
 * controllers commute when neither can affect the other's enabledness
 * or behavior; in that case exploring only one of them (an "ample"
 * singleton) and postponing the rest preserves every checked
 * property. A candidate delivery m -> B is ample when:
 *
 *  (1) it is the lowest-indexed candidate that passes all checks
 *      (determinism: the reduced graph is a function of the state);
 *  (2) no other in-flight message is addressed to B, except messages
 *      ordered strictly behind m on m's own FIFO channel (nothing
 *      else can reach B before m fires);
 *  (3) no core access is possible at B right now (B not a leaf, its
 *      budget is exhausted, or its current block state has no access
 *      transition);
 *  (4) no other pending message, and no budgeted core access at
 *      another leaf, can send to B in one step: B is not the
 *      destination node's parent, not the message src/requestor, not
 *      the owner / saved requestor / saved lower / a sharer recorded
 *      at any such node. This is a one-step approximation of the
 *      persistent-set condition; multi-step send chains that reach B
 *      are not excluded statically, and the POR parity suite
 *      (tests/test_checker_por.cc) holds verdict + census equality
 *      over the full builtin matrix as the empirical guard;
 *  (5) executing it is invisible to the invariants: the data ghost,
 *      load observations, and — when B is a leaf — the
 *      stable/permission/data tuple the SWMR and data-value checks
 *      read are unchanged (transient-to-transient moves qualify,
 *      which is most of a non-stalling run);
 *  (6) its message type has a finite "potential": in the static
 *      can-send graph over message types (t -> u when some Execute
 *      transition triggered by t sends u), no cycle is reachable
 *      from t. Every ample delivery then strictly decreases the sum
 *      of potentials over in-flight messages, so no cycle of the
 *      state graph consists solely of ample steps — the standard
 *      cycle proviso, enforced without any visited-set probe (which
 *      would make the reduced graph schedule-dependent).
 *
 * Condition (5) is checked by actually executing the candidate (a
 * "probe") — at most kPorProbeLimit per expansion — and discarding
 * the result if visible. A successful probe IS the successor (it is
 * handed to dedup directly, never re-executed), so POR removes work
 * even before it removes states. Census marks fired by a discarded
 * probe are sound: marks are monotone and the same transition fires
 * again in the full expansion.
 */
struct PorContext
{
    const System *sys = nullptr;

    /** Per MsgTypeId: no cycle reachable in the can-send type graph
     *  (condition 6). */
    std::vector<char> finitePot;

    /** Per node: per machine state, whether any core-access Execute
     *  transition exists (condition 3). Shared per Machine. */
    std::vector<const std::vector<char> *> accessByNode;

    void
    build(const System &s)
    {
        sys = &s;
        const size_t nt = s.msgs->size();
        std::vector<std::vector<MsgTypeId>> adj(nt);
        std::unordered_map<const Machine *, std::vector<char>> access;
        for (const NodeCtx &n : s.nodes) {
            if (!n.machine || access.count(n.machine))
                continue;
            auto &acc = access[n.machine];
            acc.assign(n.machine->numStates(), 0);
            for (const auto &[key, vec] : n.machine->table()) {
                if (key.second.kind == EventKey::Kind::Access) {
                    for (const Transition &t : vec) {
                        if (t.kind == TransKind::Execute)
                            acc[static_cast<size_t>(key.first)] = 1;
                    }
                    continue;
                }
                for (const Transition &t : vec) {
                    if (t.kind != TransKind::Execute)
                        continue;
                    for (const Op &op : t.ops) {
                        if (op.code == OpCode::Send)
                            adj[static_cast<size_t>(key.second.type)]
                                .push_back(op.send.type);
                    }
                }
            }
        }
        std::unordered_map<const Machine *, size_t> stored;
        for (auto &kv : access) {
            stored[kv.first] = access_.size();
            access_.push_back(std::move(kv.second));
        }
        accessByNode.resize(s.nodes.size());
        for (const NodeCtx &n : s.nodes)
            accessByNode[static_cast<size_t>(n.id)] =
                &access_[stored[n.machine]];

        // Cycle reachability over the type graph: iterative DFS with
        // an explicit on-stack color; a type reaching any cycle
        // (including through another type) has infinite potential.
        finitePot.assign(nt, 1);
        std::vector<uint8_t> color(nt, 0);  // 0 new, 1 on stack, 2 done
        for (MsgTypeId root = 0; root < static_cast<MsgTypeId>(nt);
             ++root) {
            if (color[static_cast<size_t>(root)])
                continue;
            dfs(root, adj, color);
        }
    }

  private:
    std::vector<std::vector<char>> access_;

    bool
    dfs(MsgTypeId t, const std::vector<std::vector<MsgTypeId>> &adj,
        std::vector<uint8_t> &color)
    {
        size_t ti = static_cast<size_t>(t);
        if (color[ti] == 1)
            return true;  // back edge: cycle
        if (color[ti] == 2)
            return finitePot[ti] == 0;
        color[ti] = 1;
        bool bad = false;
        for (MsgTypeId u : adj[ti])
            bad = dfs(u, adj, color) || bad;
        color[ti] = 2;
        if (bad)
            finitePot[ti] = 0;
        return bad;
    }
};

namespace
{

/** Probes executed per expansion before falling back to the full
 *  interleaving (a deterministic function of the state, so every
 *  thread count and every resume explores one reduced graph). */
constexpr int kPorProbeLimit = 3;

/**
 * Per-expansion precomputation for the static ample checks: one pass
 * over the message multiset and the budgeted leaves replaces the
 * per-candidate rescans of conditions (2) and (4).
 *
 *  - `excl` is a node bitmask of every one-step send target any
 *    pending message or budgeted access could produce (condition 4).
 *    It is built over ALL messages — including the candidate itself —
 *    which is slightly stricter than the pairwise check (a candidate
 *    whose own destination fields point back at its destination is
 *    rejected), and strictly sound.
 *  - `dstCount` counts pending messages per destination; a candidate
 *    with a unique destination passes condition (2) outright, and
 *    only the shared-destination case pays the ordered-behind rescan.
 */
struct PorScan
{
    uint64_t excl = 0;
    std::array<uint8_t, 64> dstCount{};

    void
    build(const PorContext &por, const SysState &st)
    {
        const System &sys = *por.sys;
        auto mark = [this](NodeId n) {
            if (n != kNoNode)
                excl |= uint64_t{1} << static_cast<uint32_t>(n);
        };
        for (const Msg &o : st.msgs) {
            ++dstCount[static_cast<size_t>(o.dst)];
            const BlockState &db =
                st.blocks[static_cast<size_t>(o.dst)];
            mark(sys.nodes[static_cast<size_t>(o.dst)].parent);
            mark(o.src);
            mark(o.requestor);
            mark(db.owner);
            mark(db.tbe.savedRequestor);
            mark(db.tbe.savedLower);
            excl |= static_cast<uint64_t>(db.sharers);
        }
        for (size_t li = 0; li < sys.leafCaches.size(); ++li) {
            if (st.budget[li] == 0)
                continue;
            NodeId lj = sys.leafCaches[li];
            const BlockState &lb =
                st.blocks[static_cast<size_t>(lj)];
            mark(sys.nodes[static_cast<size_t>(lj)].parent);
            mark(lb.owner);
            mark(lb.tbe.savedRequestor);
            mark(lb.tbe.savedLower);
            excl |= static_cast<uint64_t>(lb.sharers);
        }
    }
};

/** Conditions (2)-(4) and (6) of PorContext for msgs[mi] — the
 *  checks that need no execution. */
bool
porStaticallyEligible(const PorContext &por, const SysState &st,
                      size_t mi, const PorScan &scan)
{
    const System &sys = *por.sys;
    const Msg &m = st.msgs[mi];
    if (!por.finitePot[static_cast<size_t>(m.type)])
        return false;  // (6) type can feed a send cycle
    const NodeId B = m.dst;

    // (4) no one-step send anywhere can target B.
    if ((scan.excl >> static_cast<uint32_t>(B)) & 1u)
        return false;

    // (2) nothing else may reach B before m fires: unique destination
    // passes outright, otherwise every other message to B must be
    // ordered strictly behind m on the same channel.
    if (scan.dstCount[static_cast<size_t>(B)] > 1) {
        const bool mOrdered = onOrderedVnet(*sys.msgs, m);
        for (size_t j = 0; j < st.msgs.size(); ++j) {
            if (j == mi)
                continue;
            const Msg &o = st.msgs[j];
            if (o.dst == B &&
                !(o.src == m.src && mOrdered &&
                  onOrderedVnet(*sys.msgs, o) && o.seq > m.seq)) {
                return false;
            }
        }
    }

    // (3) no core access possible at B itself.
    int32_t bli = sys.leafIndex[static_cast<size_t>(B)];
    if (bli >= 0 && st.budget[static_cast<size_t>(bli)] > 0 &&
        (*por.accessByNode[static_cast<size_t>(B)])
            [static_cast<size_t>(st.blocks[static_cast<size_t>(B)]
                                     .state)]) {
        return false;
    }
    return true;
}

/** Condition (5): the executed delivery changed nothing any invariant
 *  reads — the ghost, load observations, and (for leaf destinations)
 *  the stable/permission/data tuple findViolation consults. */
bool
porInvisible(const System &sys, const SysState &cur,
             const SysState &next, NodeId dst, bool load_called)
{
    if (load_called || next.ghost != cur.ghost)
        return false;
    if (sys.leafIndex[static_cast<size_t>(dst)] < 0)
        return true;  // non-leaf controllers are invariant-invisible
    const Machine &m = *sys.nodes[static_cast<size_t>(dst)].machine;
    const State &so =
        m.state(cur.blocks[static_cast<size_t>(dst)].state);
    const State &sn =
        m.state(next.blocks[static_cast<size_t>(dst)].state);
    if (so.stable != sn.stable)
        return false;
    if (!so.stable)
        return true;  // transient -> transient: nothing observable
    auto writable = [](const State &s) {
        return s.perm == Perm::ReadWrite || s.silentUpgrade;
    };
    if (writable(so) != writable(sn) ||
        (so.perm == Perm::Read) != (sn.perm == Perm::Read) ||
        (so.perm == Perm::None) != (sn.perm == Perm::None)) {
        return false;
    }
    if (so.perm != Perm::None &&
        (cur.blocks[static_cast<size_t>(dst)].hasData !=
             next.blocks[static_cast<size_t>(dst)].hasData ||
         cur.blocks[static_cast<size_t>(dst)].data !=
             next.blocks[static_cast<size_t>(dst)].data)) {
        return false;
    }
    return true;
}

enum class PorOutcome
{
    NoAmple,  ///< fall through to the full expansion
    Ample,    ///< @p next holds the single ample successor
    Error,    ///< the probe hit a protocol error (errMsg filled)
};

/**
 * The ample scan: find the lowest-indexed candidate that passes the
 * static checks, execute it, and keep it if invisible. Stalled
 * candidates are cleared from @p mask (they fire nothing, so the
 * full expansion need not re-execute them); visible probes are
 * discarded and re-executed by the full expansion.
 */
PorOutcome
porTryAmple(const PorContext &por, bool mark_reached,
            const SysState &cur, std::vector<char> &mask,
            SysState &next, size_t &ample_idx, std::string &err_msg)
{
    const System &sys = *por.sys;
    PorScan scan;
    scan.build(por, cur);
    int probes = 0;
    for (size_t mi = 0; mi < cur.msgs.size(); ++mi) {
        if (!mask[mi] || !porStaticallyEligible(por, cur, mi, scan))
            continue;
        if (++probes > kPorProbeLimit)
            break;
        const Msg msg = cur.msgs[mi];
        next.assignWithoutMsg(cur, mi);
        StateEnv env;
        env.state = &next;
        StepResult r = deliverMsg(
            sys.nodes[static_cast<size_t>(msg.dst)], *sys.msgs,
            next.blocks[static_cast<size_t>(msg.dst)], msg, env,
            mark_reached);
        if (r == StepResult::Error || env.failed) {
            err_msg = env.errorMsg;
            return PorOutcome::Error;
        }
        if (r == StepResult::Stalled) {
            mask[mi] = 0;
            continue;
        }
        if (!porInvisible(sys, cur, next, msg.dst, env.loadCalled))
            continue;
        ample_idx = mi;
        return PorOutcome::Ample;
    }
    return PorOutcome::NoAmple;
}

/** The pool slot the next successor executes into. */
Successor &
slot(std::vector<Successor> &pool, size_t n)
{
    if (n == pool.size())
        pool.emplace_back();
    return pool[n];
}

std::string
deliveryLabel(const System &sys, const Msg &msg)
{
    return "deliver " + sys.msgs->displayName(msg.type) + " " +
           std::to_string(msg.src) + "->" + std::to_string(msg.dst);
}

} // namespace

Expander::Expander(const System &sys, const CheckOptions &opts)
    : sys_(sys), markReached_(opts.markReached),
      atomicTransactions_(opts.atomicTransactions)
{
    if (opts.partialOrderReduction) {
        por_ = std::make_unique<PorContext>();
        por_->build(sys);
    }
}

Expander::~Expander() = default;

void
Expander::expand(const SysState &cur, bool labels,
                 std::vector<char> &mask, std::vector<Successor> &pool,
                 Expansion &out) const
{
    out.count = 0;
    out.ample = false;
    out.failed = false;

    // 1. Message deliveries.
    cur.deliverableMask(*sys_.msgs, mask);

    // 1a. Partial-order reduction: when one delivery provably
    // commutes with everything else enabled here, it is the only
    // successor explored from this state.
    if (por_) {
        size_t ample_idx = SIZE_MAX;
        switch (porTryAmple(*por_, markReached_, cur, mask,
                            slot(pool, 0).st, ample_idx, out.error)) {
        case PorOutcome::Error:
            out.failed = true;
            return;
        case PorOutcome::Ample:
            out.ample = true;
            out.count = 1;
            if (labels)
                pool[0].how =
                    deliveryLabel(sys_, cur.msgs[ample_idx]) + " [ample]";
            return;
        case PorOutcome::NoAmple:
            break;
        }
    }

    for (size_t mi = 0; mi < cur.msgs.size(); ++mi) {
        if (!mask[mi])
            continue;  // blocked behind an older ordered message
        const Msg msg = cur.msgs[mi];
        Successor &s = slot(pool, out.count);
        s.st.assignWithoutMsg(cur, mi);
        StateEnv env;
        env.state = &s.st;
        StepResult r =
            deliverMsg(sys_.nodes[msg.dst], *sys_.msgs,
                       s.st.blocks[msg.dst], msg, env, markReached_);
        if (r == StepResult::Error || env.failed) {
            out.failed = true;
            out.error = env.errorMsg;
            return;
        }
        if (r == StepResult::Stalled)
            continue;
        if (labels)
            s.how = deliveryLabel(sys_, msg);
        ++out.count;
    }

    // 2. Core accesses.
    if (atomicTransactions_ && !cur.quiescent(sys_))
        return;
    for (size_t li = 0; li < sys_.leafCaches.size(); ++li) {
        if (cur.budget[li] == 0)
            continue;
        NodeId c = sys_.leafCaches[li];
        const NodeCtx &node = sys_.nodes[c];
        for (Access a : {Access::Load, Access::Store, Access::Evict}) {
            EventKey ev = EventKey::mkAccess(a);
            if (!node.machine->hasTransition(cur.blocks[c].state, ev))
                continue;
            Successor &s = slot(pool, out.count);
            s.st = cur;
            s.st.budget[li] -= 1;
            StateEnv env;
            env.state = &s.st;
            StepResult r = deliverEvent(node, *sys_.msgs, s.st.blocks[c],
                                        ev, nullptr, env, markReached_);
            if (r == StepResult::Error || env.failed) {
                out.failed = true;
                out.error = env.errorMsg;
                return;
            }
            if (r == StepResult::Stalled)
                continue;
            if (labels)
                s.how = "core " + std::to_string(c) + ": " + toString(a);
            ++out.count;
        }
    }
}

} // namespace hieragen::verif
