/**
 * @file
 * The checker's exploration engine (internal to hg_verif): breadth-
 * first search over a System's reachable states with @p workers
 * threads, one of them the caller's. See engine.cc and
 * docs/VERIFIER.md ("The engine").
 */

#ifndef HIERAGEN_VERIF_ENGINE_HH
#define HIERAGEN_VERIF_ENGINE_HH

#include "verif/checker.hh"

namespace hieragen::verif
{

/** Explore @p sys under @p opts with @p workers >= 1 threads. The
 *  options must already be validated (see check()). */
CheckResult explore(const System &sys, const CheckOptions &opts,
                    unsigned workers);

} // namespace hieragen::verif

#endif // HIERAGEN_VERIF_ENGINE_HH
