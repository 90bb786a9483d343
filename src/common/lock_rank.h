#ifndef SPACETWIST_COMMON_LOCK_RANK_H_
#define SPACETWIST_COMMON_LOCK_RANK_H_

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace spacetwist::lock_order {

/// Sentinel capabilities that teach clang's static thread-safety analysis
/// the global lock-rank order (docs/ANALYSIS.md §"Lock ranks").
///
/// The analysis (-Wthread-safety-beta) understands pairwise
/// ACQUIRED_BEFORE/ACQUIRED_AFTER edges between *declarations*, but the
/// repo's real mutexes are per-instance members of unrelated classes, so no
/// two of them can name each other directly. These sentinels fix that: one
/// never-locked global Mutex per LockRank level, chained into a total order
/// below. A real mutex then pins itself into the chain by declaring
///
///   Mutex mu_ ACQUIRED_AFTER(lock_order::kOwnLevel)
///            ACQUIRED_BEFORE(lock_order::kNextLevel);
///
/// which makes any in-TU acquisition against the documented order a
/// compile error on clang, complementing the runtime enforcer in
/// common/mutex.h that catches the cross-TU cases.
///
/// Declaring a new level: add a LockRank value in common/mutex.h, a
/// sentinel here chained after its predecessor, and its definition in
/// lock_rank.cc. The sentinels are never locked at runtime; they exist
/// purely as annotation anchors.
extern Mutex kFaultyTransport;
extern Mutex kEventTransport ACQUIRED_AFTER(kFaultyTransport);
extern Mutex kThreadPool ACQUIRED_AFTER(kEventTransport);
extern Mutex kEngineFront ACQUIRED_AFTER(kThreadPool);
extern Mutex kRouterFanout ACQUIRED_AFTER(kEngineFront);
extern Mutex kTraceSink ACQUIRED_AFTER(kRouterFanout);
extern Mutex kFlightRecorder ACQUIRED_AFTER(kTraceSink);
extern Mutex kBufferPool ACQUIRED_AFTER(kFlightRecorder);
extern Mutex kMetricRegistry ACQUIRED_AFTER(kBufferPool);

}  // namespace spacetwist::lock_order

#endif  // SPACETWIST_COMMON_LOCK_RANK_H_
