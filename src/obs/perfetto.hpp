#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/event.hpp"

namespace smiless::obs {

/// Track naming for one deployed application: the app's display name plus
/// its DAG node names in NodeId order (used to label instance tracks and
/// batch slices).
struct AppTrackInfo {
  std::string name;
  std::vector<std::string> node_names;
};

/// Render an event stream as a Chrome/Perfetto trace-event JSON array
/// (loadable at ui.perfetto.dev). Layout:
///  - process `pid_base`     : the cluster; one thread per machine (tid =
///                             machine + 1) carrying machine down/up slices.
///  - process `pid_base+1+a` : application `a`; tid 1 is the request gateway
///                             (submit/complete/fail/prewarm/retry/timeout
///                             instants), tids >= 2 are instance tracks with
///                             init and batch-execution slices. Instance tids
///                             are assigned by sorted (node, instance) so the
///                             mapping is independent of event order.
///  - flow arrows ("s"/"t"/"f") connect the per-node slices of each request
///    that traversed more than one DAG stage.
/// Timestamps are simulation seconds scaled to microseconds; the output is a
/// pure function of the event stream, so it is byte-stable across runs.
/// `pid_base` offsets every pid so multiple cells can share one trace file;
/// a non-empty `label` is prefixed onto process names.
///
/// The records go to `sink` one at a time, in array order, and none is
/// kept once `sink` returns: a trace file is written a record at a time
/// (json::ArrayWriter). Only the track tables and each multi-stage
/// request's spans (for the flow arrows) are held until the end.
void perfetto_records(const std::vector<Event>& events, const std::map<int, AppTrackInfo>& apps,
                      int pid_base, const std::string& label, const json::Sink& sink);

/// The same records collected into one trace-event array.
json::Value perfetto_trace(const std::vector<Event>& events,
                           const std::map<int, AppTrackInfo>& apps, int pid_base = 0,
                           const std::string& label = "");

}  // namespace smiless::obs
