#include "common/lock_rank.h"

namespace spacetwist::lock_order {

// Annotation anchors only — never locked (see lock_rank.h). Each carries
// its level's rank and a "lock_order." name so that if one ever *were*
// locked by mistake, the runtime enforcer would name it clearly.
Mutex kFaultyTransport{LockRank::kFaultyTransport, "lock_order.faulty_transport"};
Mutex kEventTransport{LockRank::kEventTransport, "lock_order.event_transport"};
Mutex kThreadPool{LockRank::kThreadPool, "lock_order.thread_pool"};
Mutex kEngineFront{LockRank::kEngineFront, "lock_order.engine_front"};
Mutex kRouterFanout{LockRank::kRouterFanout, "lock_order.router_fanout"};
Mutex kTraceSink{LockRank::kTraceSink, "lock_order.trace_sink"};
Mutex kFlightRecorder{LockRank::kFlightRecorder, "lock_order.flight_recorder"};
Mutex kBufferPool{LockRank::kBufferPool, "lock_order.buffer_pool"};
Mutex kMetricRegistry{LockRank::kMetricRegistry, "lock_order.metric_registry"};

}  // namespace spacetwist::lock_order
