/**
 * @file
 * The seed MEMCON event path, kept as a test oracle for
 * core::MemconEngine (DESIGN.md §11).
 *
 * It materializes every write event, std::stable_sorts them by time,
 * holds page state as an array of structs, and scans every page at
 * every quantum boundary for read-only and scrub-due rows - the
 * straightforward reading of the mechanism. The streaming engine must
 * reproduce it bit-for-bit on every metric and transition
 * (tests/test_engine_equiv.cc), and micro_engine_ops prices the
 * streaming engine against it. It models the flat single-bank engine,
 * so it rejects any non-identity address map.
 */

#ifndef MEMCON_ORACLE_REFERENCE_ENGINE_HH
#define MEMCON_ORACLE_REFERENCE_ENGINE_HH

#include <vector>

#include "common/units.hh"
#include "core/engine.hh"
#include "trace/app_model.hh"

namespace memcon::oracle
{

/**
 * Replay per-page write timelines over [0, duration_ms] exactly as
 * core::MemconEngine::run specifies. Fills every metric and counter
 * of the digest surface, and `pageEnd` under capturePageEndState; the
 * engine's hot-path instrumentation (heapPushes, wheelPops,
 * peakLiveStreams) and `shards` stay empty.
 */
core::MemconResult runReferenceEngine(
    const core::MemconConfig &cfg,
    const std::vector<std::vector<TimeMs>> &page_writes,
    double duration_ms,
    const core::MemconEngine::FailureOracle &oracle = {},
    const core::MemconEngine::TransitionObserver &observer = {},
    const core::MemconEngine::TimedFailureOracle &timed_oracle = {});

/** core::MemconEngine::runOnApp on the reference path: every page's
 *  write vector is materialized up front, then replayed. */
core::MemconResult runReferenceOnApp(
    const core::MemconConfig &cfg, const trace::AppPersona &persona,
    const core::MemconEngine::FailureOracle &oracle = {},
    const core::MemconEngine::TransitionObserver &observer = {});

} // namespace memcon::oracle

#endif // MEMCON_ORACLE_REFERENCE_ENGINE_HH
