#ifndef SPACETWIST_SERVER_INN_BACKEND_H_
#define SPACETWIST_SERVER_INN_BACKEND_H_

#include "serving/inn_backend.h"

namespace spacetwist::server {

/// The serving-backend contract lives in src/serving (serving/inn_backend.h
/// explains why: both this library and src/memidx implement it, and this
/// library owns a memidx backend, so hosting the interfaces here would close
/// an include cycle). These aliases keep the established server:: spelling
/// for the engine, the shard router, and everything above them.
///
/// Kept on purpose: perfbench/src/stages.h includes this header and uses
/// the server:: names, so deleting the shim breaks perfbench/run.py's
/// build. Retire it together with a change to the benchmark.
using GranularOptions = serving::GranularOptions;
using InnSource = serving::InnSource;
using InnBackend = serving::InnBackend;

}  // namespace spacetwist::server

#endif  // SPACETWIST_SERVER_INN_BACKEND_H_
