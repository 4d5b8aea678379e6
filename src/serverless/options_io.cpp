#include "serverless/options_io.hpp"

#include <cmath>

namespace smiless::serverless {

json::Value to_json(const PlatformOptions& o) {
  json::Value v = json::Value::object();
  v["window_seconds"] = o.window_seconds;
  v["inference_noise"] = o.inference_noise;
  v["retry_delay"] = o.retry_delay;
  v["retry_backoff"] = o.retry_backoff;
  v["retry_max_delay"] = o.retry_max_delay;
  v["max_retries"] = o.max_retries;
  v["request_timeout"] = o.request_timeout;
  v["record_traces"] = o.record_traces;
  return v;
}

PlatformOptions platform_options_from_json(const json::Value& v) {
  json::expect_keys(v, "platform",
                    {"window_seconds", "inference_noise", "retry_delay", "retry_backoff",
                     "retry_max_delay", "max_retries", "request_timeout", "record_traces"});
  PlatformOptions o;
  o.window_seconds = v.get("window_seconds", o.window_seconds);
  o.inference_noise = v.get("inference_noise", o.inference_noise);
  o.retry_delay = v.get("retry_delay", o.retry_delay);
  o.retry_backoff = v.get("retry_backoff", o.retry_backoff);
  o.retry_max_delay = v.get("retry_max_delay", o.retry_max_delay);
  o.max_retries = v.get("max_retries", o.max_retries);
  o.request_timeout = v.get("request_timeout", o.request_timeout);
  o.record_traces = v.get("record_traces", o.record_traces);
  validate(o);
  return o;
}

void validate(const PlatformOptions& o) {
  if (!(std::isfinite(o.window_seconds) && o.window_seconds > 0.0))
    json::reject("window_seconds", "finite and > 0", o.window_seconds);
  if (!(o.inference_noise >= 0.0)) json::reject("inference_noise", ">= 0", o.inference_noise);
  if (!(o.retry_delay > 0.0)) json::reject("retry_delay", "> 0", o.retry_delay);
  if (!(o.retry_backoff >= 1.0)) json::reject("retry_backoff", ">= 1", o.retry_backoff);
  if (!(o.retry_max_delay >= o.retry_delay))
    json::reject("retry_max_delay",
                 ">= retry_delay (" + json::Value::format_double(o.retry_delay) + ")",
                 o.retry_max_delay);
  if (!(o.request_timeout > 0.0)) json::reject("request_timeout", "> 0", o.request_timeout);
}

}  // namespace smiless::serverless
