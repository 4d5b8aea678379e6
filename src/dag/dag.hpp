#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace smiless::dag {

using NodeId = int;

/// A fork/join substructure: `fork` has >= 2 outgoing branches that all
/// reconverge at `join`. `branches` holds the interior node sequences of each
/// branch (possibly empty when fork connects to join directly). The Workflow
/// Manager processes these smallest-first when recombining subgraph
/// solutions (§V-C2).
struct ForkJoin {
  NodeId fork = -1;
  NodeId join = -1;
  std::vector<std::vector<NodeId>> branches;
  /// Total interior node count — the "size" used to order substructures.
  std::size_t interior_size() const;
};

/// Directed acyclic graph with named nodes. This is the in-memory
/// representation of an ML serving application's workflow: each node is one
/// inference function, each edge a data dependency.
class Dag {
 public:
  /// Add a node; names must be unique and non-empty.
  NodeId add_node(std::string name);

  /// Add edge u -> v. Rejects self-loops, duplicate edges, and edges that
  /// would create a cycle.
  void add_edge(NodeId u, NodeId v);

  std::size_t size() const { return names_.size(); }
  const std::string& name(NodeId n) const;
  /// Node id for `name`; -1 if absent.
  NodeId find(const std::string& name) const;

  std::span<const NodeId> successors(NodeId n) const;
  std::span<const NodeId> predecessors(NodeId n) const;
  std::size_t in_degree(NodeId n) const { return predecessors(n).size(); }
  std::size_t out_degree(NodeId n) const { return successors(n).size(); }

  /// Nodes with no predecessors / no successors, in ascending id order.
  const std::vector<NodeId>& sources() const { return sources_; }
  const std::vector<NodeId>& sinks() const { return sinks_; }

  /// Topological order (Kahn). Stable: ties broken by insertion order.
  std::vector<NodeId> topo_order() const;

  bool is_reachable(NodeId from, NodeId to) const;

  /// All simple source->sink paths (node sequences). The applications served
  /// here have at most a handful of branches, so enumeration is cheap. This
  /// is the decomposition the Workflow Manager feeds to the Strategy
  /// Optimizer: each path is a purely sequential chain.
  std::vector<std::vector<NodeId>> all_paths() const;

  /// End-to-end latency given per-node weights: parallel branches overlap,
  /// so this is the longest (max-weight) source->sink path sum.
  double critical_path_weight(std::span<const double> node_weights) const;

  /// Node sequence of the longest path by node count (ties by weight 1).
  std::vector<NodeId> longest_path() const;

  /// All fork/join substructures, smallest interior first (§V-C2 combining
  /// order). Only reports pairs where every path out of `fork` reaches
  /// `join` and at least two branches exist.
  std::vector<ForkJoin> fork_join_pairs() const;

  /// Graphviz DOT rendering, for documentation and debugging.
  std::string to_dot(const std::string& graph_name = "app") const;

 private:
  bool would_create_cycle(NodeId u, NodeId v) const;

  std::vector<std::string> names_;
  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;
  std::vector<NodeId> sources_;  ///< maintained by add_node / add_edge
  std::vector<NodeId> sinks_;
};

}  // namespace smiless::dag
