#include "dag/dag.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "common/check.hpp"

namespace smiless::dag {

std::size_t ForkJoin::interior_size() const {
  std::size_t n = 0;
  for (const auto& b : branches) n += b.size();
  return n;
}

NodeId Dag::add_node(std::string name) {
  SMILESS_CHECK_MSG(!name.empty(), "node name must be non-empty");
  SMILESS_CHECK_MSG(find(name) < 0, "duplicate node name: " << name);
  names_.push_back(std::move(name));
  succ_.emplace_back();
  pred_.emplace_back();
  // The newest node has the largest id, so appending keeps both lists sorted.
  const auto id = static_cast<NodeId>(names_.size() - 1);
  sources_.push_back(id);
  sinks_.push_back(id);
  return id;
}

void Dag::add_edge(NodeId u, NodeId v) {
  SMILESS_CHECK(u >= 0 && static_cast<std::size_t>(u) < size());
  SMILESS_CHECK(v >= 0 && static_cast<std::size_t>(v) < size());
  SMILESS_CHECK_MSG(u != v, "self loop on " << names_[u]);
  SMILESS_CHECK_MSG(std::find(succ_[u].begin(), succ_[u].end(), v) == succ_[u].end(),
                    "duplicate edge " << names_[u] << " -> " << names_[v]);
  SMILESS_CHECK_MSG(!would_create_cycle(u, v),
                    "edge " << names_[u] << " -> " << names_[v] << " creates a cycle");
  if (succ_[u].empty()) sinks_.erase(std::find(sinks_.begin(), sinks_.end(), u));
  if (pred_[v].empty()) sources_.erase(std::find(sources_.begin(), sources_.end(), v));
  succ_[u].push_back(v);
  pred_[v].push_back(u);
}

bool Dag::would_create_cycle(NodeId u, NodeId v) const {
  // A cycle appears iff u is reachable from v.
  return is_reachable(v, u);
}

const std::string& Dag::name(NodeId n) const {
  SMILESS_CHECK(n >= 0 && static_cast<std::size_t>(n) < size());
  return names_[n];
}

NodeId Dag::find(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<NodeId>(i);
  return -1;
}

std::span<const NodeId> Dag::successors(NodeId n) const {
  SMILESS_CHECK(n >= 0 && static_cast<std::size_t>(n) < size());
  return succ_[n];
}

std::span<const NodeId> Dag::predecessors(NodeId n) const {
  SMILESS_CHECK(n >= 0 && static_cast<std::size_t>(n) < size());
  return pred_[n];
}

std::vector<NodeId> Dag::topo_order() const {
  std::vector<std::size_t> indeg(size());
  for (std::size_t i = 0; i < size(); ++i) indeg[i] = pred_[i].size();
  std::deque<NodeId> ready;
  for (std::size_t i = 0; i < size(); ++i)
    if (indeg[i] == 0) ready.push_back(static_cast<NodeId>(i));
  std::vector<NodeId> order;
  order.reserve(size());
  while (!ready.empty()) {
    const NodeId n = ready.front();
    ready.pop_front();
    order.push_back(n);
    for (NodeId s : succ_[n])
      if (--indeg[s] == 0) ready.push_back(s);
  }
  SMILESS_CHECK_MSG(order.size() == size(), "graph contains a cycle");
  return order;
}

bool Dag::is_reachable(NodeId from, NodeId to) const {
  if (from < 0 || to < 0) return false;
  if (from == to) return true;
  std::vector<bool> seen(size(), false);
  std::deque<NodeId> work{from};
  seen[from] = true;
  while (!work.empty()) {
    const NodeId n = work.front();
    work.pop_front();
    for (NodeId s : succ_[n]) {
      if (s == to) return true;
      if (!seen[s]) {
        seen[s] = true;
        work.push_back(s);
      }
    }
  }
  return false;
}

std::vector<std::vector<NodeId>> Dag::all_paths() const {
  std::vector<std::vector<NodeId>> paths;
  std::vector<NodeId> cur;
  // Depth-first enumeration from every source.
  auto dfs = [&](auto&& self, NodeId n) -> void {
    cur.push_back(n);
    if (succ_[n].empty()) {
      paths.push_back(cur);
    } else {
      for (NodeId s : succ_[n]) self(self, s);
    }
    cur.pop_back();
  };
  for (NodeId s : sources()) dfs(dfs, s);
  return paths;
}

double Dag::critical_path_weight(std::span<const double> node_weights) const {
  SMILESS_CHECK(node_weights.size() == size());
  std::vector<double> best(size(), 0.0);
  for (NodeId n : topo_order()) {
    double in = 0.0;
    for (NodeId p : pred_[n]) in = std::max(in, best[p]);
    best[n] = in + node_weights[n];
  }
  double out = 0.0;
  for (double b : best) out = std::max(out, b);
  return out;
}

std::vector<NodeId> Dag::longest_path() const {
  std::vector<double> depth(size(), 1.0);
  std::vector<NodeId> via(size(), -1);
  for (NodeId n : topo_order()) {
    for (NodeId p : pred_[n]) {
      if (depth[p] + 1.0 > depth[n]) {
        depth[n] = depth[p] + 1.0;
        via[n] = p;
      }
    }
  }
  NodeId tail = 0;
  for (std::size_t i = 1; i < size(); ++i)
    if (depth[i] > depth[tail]) tail = static_cast<NodeId>(i);
  std::vector<NodeId> path;
  for (NodeId n = tail; n >= 0; n = via[n]) path.push_back(n);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<ForkJoin> Dag::fork_join_pairs() const {
  std::vector<ForkJoin> out;
  for (std::size_t f = 0; f < size(); ++f) {
    const auto fork = static_cast<NodeId>(f);
    if (out_degree(fork) < 2) continue;
    // Candidate joins: nodes with in-degree >= 2 reachable from fork.
    for (std::size_t j = 0; j < size(); ++j) {
      const auto join = static_cast<NodeId>(j);
      if (join == fork || in_degree(join) < 2) continue;
      if (!is_reachable(fork, join)) continue;

      // Collect, per fork-successor, the interior path(s) that reach join.
      // Accept the pair only if every successor of fork leads to join.
      std::vector<std::vector<NodeId>> branches;
      bool all_reach = true;
      for (NodeId s : succ_[fork]) {
        if (s == join) {
          branches.push_back({});
          continue;
        }
        if (!is_reachable(s, join)) {
          all_reach = false;
          break;
        }
        // Walk the (assumed simple) branch from s to join.
        std::vector<NodeId> branch;
        NodeId cur = s;
        bool ok = true;
        while (cur != join) {
          branch.push_back(cur);
          NodeId next = -1;
          for (NodeId t : succ_[cur]) {
            if (t == join || is_reachable(t, join)) {
              next = t;
              break;
            }
          }
          if (next < 0 || branch.size() > size()) {
            ok = false;
            break;
          }
          cur = next;
        }
        if (!ok) {
          all_reach = false;
          break;
        }
        branches.push_back(std::move(branch));
      }
      if (all_reach && branches.size() >= 2) {
        out.push_back({fork, join, std::move(branches)});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ForkJoin& a, const ForkJoin& b) { return a.interior_size() < b.interior_size(); });
  return out;
}

std::string Dag::to_dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n";
  for (std::size_t i = 0; i < size(); ++i)
    os << "  n" << i << " [label=\"" << names_[i] << "\"];\n";
  for (std::size_t u = 0; u < size(); ++u)
    for (NodeId v : succ_[u]) os << "  n" << u << " -> n" << v << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace smiless::dag
