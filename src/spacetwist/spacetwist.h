#ifndef SPACETWIST_SPACETWIST_SPACETWIST_H_
#define SPACETWIST_SPACETWIST_SPACETWIST_H_

/// Umbrella header for the SpaceTwist library: include this to get the
/// whole public API. Individual modules can be included directly for
/// tighter dependencies.

#include "baselines/clk_baseline.h"       // IWYU pragma: export
#include "baselines/hilbert_baseline.h"   // IWYU pragma: export
#include "common/result.h"                // IWYU pragma: export
#include "common/rng.h"                   // IWYU pragma: export
#include "common/status.h"                // IWYU pragma: export
#include "core/anchor.h"                  // IWYU pragma: export
#include "core/params.h"                  // IWYU pragma: export
#include "core/spacetwist_client.h"       // IWYU pragma: export
#include "datasets/generator.h"           // IWYU pragma: export
#include "datasets/io.h"                  // IWYU pragma: export
#include "engine/event_engine.h"          // IWYU pragma: export
#include "engine/event_transport.h"       // IWYU pragma: export
#include "eval/arrival.h"                 // IWYU pragma: export
#include "eval/load_generator.h"          // IWYU pragma: export
#include "eval/runner.h"                  // IWYU pragma: export
#include "eval/table.h"                   // IWYU pragma: export
#include "eval/workload.h"                // IWYU pragma: export
#include "net/wire.h"                     // IWYU pragma: export
#include "privacy/exact_region.h"         // IWYU pragma: export
#include "privacy/region.h"               // IWYU pragma: export
#include "server/lbs_server.h"            // IWYU pragma: export
#include "service/service_engine.h"       // IWYU pragma: export
#include "service/wire_client.h"          // IWYU pragma: export
#include "shard/hilbert_partitioner.h"    // IWYU pragma: export
#include "shard/router.h"                 // IWYU pragma: export

#endif  // SPACETWIST_SPACETWIST_SPACETWIST_H_
