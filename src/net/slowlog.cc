#include "net/slowlog.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "net/http.h"

namespace dhyfd::net {

void SlowLog::record(const RpcRecord& rec) {
  if (capacity_ == 0) return;
  if (entries_.size() >= capacity_ &&
      rec.duration_seconds <= entries_.back().duration_seconds) {
    return;  // faster than everything retained; not worth a shuffle
  }
  auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), rec,
      [](const RpcRecord& a, const RpcRecord& b) {
        return a.duration_seconds > b.duration_seconds;
      });
  entries_.insert(pos, rec);
  if (entries_.size() > capacity_) entries_.pop_back();
}

void RecentRpcRing::record(RpcRecord rec) {
  if (capacity_ == 0) return;
  ring_.push_back(std::move(rec));
  if (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<RpcRecord> RecentRpcRing::recent() const {
  return std::vector<RpcRecord>(ring_.rbegin(), ring_.rend());
}

namespace {

std::string Fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

std::string CostLedgerJson(const CostLedger& cost) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"cpu_ms\":%.3f,\"validations\":%lld,"
                "\"partitions_built\":%lld,\"bytes_streamed\":%lld}",
                static_cast<double>(cost.cpu_ns) / 1e6,
                static_cast<long long>(cost.validations),
                static_cast<long long>(cost.partitions_built),
                static_cast<long long>(cost.bytes_streamed));
  return buf;
}

std::string RpcRecordJson(const RpcRecord& rec, double now_seconds) {
  std::string out = "{\"type\":\"";
  out += JsonEscape(rec.rtype);
  out += "\",\"outcome\":\"";
  out += JsonEscape(rec.outcome);
  out += "\",\"tenant\":\"";
  out += JsonEscape(rec.tenant);
  out += "\",\"trace_id\":" + std::to_string(rec.trace_id);
  out += ",\"request_id\":" + std::to_string(rec.request_id);
  out += ",\"conn_id\":" + std::to_string(rec.conn_id);
  out += ",\"age_seconds\":" + Fmt3(now_seconds - rec.end_seconds);
  out += ",\"duration_ms\":" + Fmt3(rec.duration_seconds * 1e3);
  out += ",\"queue_ms\":" + Fmt3(rec.queue_seconds * 1e3);
  out += ",\"run_ms\":" + Fmt3(rec.run_seconds * 1e3);
  out += ",\"cost\":" + CostLedgerJson(rec.cost);
  out += "}";
  return out;
}

}  // namespace dhyfd::net
