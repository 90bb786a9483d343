#include "eval/tradeoff.h"

#include "telemetry/trace_export.h"

namespace spacetwist::eval {

void WriteTradeoffs(const std::vector<TradeoffRecord>& records,
                    telemetry::JsonWriter* writer) {
  writer->Key("tradeoffs").BeginArray();
  for (const TradeoffRecord& rec : records) {
    writer->BeginObject();
    writer->KV("trace_id", telemetry::FormatTraceId(rec.trace_id));
    writer->KV("client", rec.client);
    writer->KV("query", rec.query_index);
    writer->KV("anchor_distance", rec.anchor_distance, 6);
    writer->KV("tau", rec.tau, 6);
    writer->KV("gamma", rec.gamma, 6);
    writer->KV("epsilon", rec.epsilon, 6);
    writer->KV("achieved_error", rec.achieved_error, 6);
    writer->KV("error_evaluated", rec.error_evaluated ? 1 : 0);
    writer->KV("reported_kth_distance", rec.reported_kth_distance, 6);
    writer->KV("result_count", rec.result_count);
    writer->KV("packets", rec.packets);
    writer->KV("points", rec.points);
    writer->KV("downlink_bytes", rec.downlink_bytes);
    writer->KV("uplink_bytes", rec.uplink_bytes);
    writer->KV("latency_ns", rec.latency_ns);
    writer->KV("attempts", rec.retry.attempts);
    writer->KV("retries", rec.retry.retries);
    writer->KV("reopens", rec.retry.reopens);
    writer->KV("stale_replies", rec.retry.stale_replies);
    writer->KV("backoff_ns", rec.retry.backoff_ns);
    writer->EndObject();
  }
  writer->EndArray();
}

}  // namespace spacetwist::eval
