#include "archlint.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <stdexcept>

#include "common/json.hpp"

namespace detlint {

namespace {

namespace json = smiless::json;

/// Position of `module` as a whole component run inside `path`
/// ("src/serverless" matches ".../src/serverless/x.hpp" but not
/// ".../src/serverless2/x.hpp" or ".../xsrc/serverless/x.hpp");
/// npos when absent.
std::size_t module_pos(const std::string& path, const std::string& module) {
  std::size_t p = 0;
  while ((p = path.find(module, p)) != std::string::npos) {
    const bool starts_component = p == 0 || path[p - 1] == '/';
    const std::size_t end = p + module.size();
    const bool ends_component = end < path.size() && path[end] == '/';
    if (starts_component && ends_component) return p;
    ++p;
  }
  return std::string::npos;
}

/// Path from the module component onward — the stable, repo-relative way to
/// name a file in a message regardless of how the scan was invoked.
std::string display(const std::string& path, const std::string& module) {
  const std::size_t p = module.empty() ? std::string::npos : module_pos(path, module);
  if (p == std::string::npos) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
  }
  return path.substr(p);
}

std::vector<std::string> string_list(const json::Value& v, const char* what) {
  std::vector<std::string> out;
  if (!v.is_array()) throw std::runtime_error(std::string("layers.json: ") + what + " must be an array");
  for (const auto& item : v.items()) out.push_back(item.as_string(what));
  return out;
}

}  // namespace

void LayerManifest::validate() const {
  if (layers.empty()) throw std::runtime_error("layers.json: no layers defined");
  std::set<std::string> names;
  std::set<std::string> members_seen;
  for (const auto& layer : layers) {
    if (layer.name.empty()) throw std::runtime_error("layers.json: layer with empty name");
    if (!names.insert(layer.name).second)
      throw std::runtime_error("layers.json: duplicate layer '" + layer.name + "'");
    if (layer.members.empty())
      throw std::runtime_error("layers.json: layer '" + layer.name + "' has no members");
    for (const auto& m : layer.members)
      if (!members_seen.insert(m).second)
        throw std::runtime_error("layers.json: module '" + m + "' listed in two layers");
  }
  for (const auto& layer : layers) {
    for (const auto& d : layer.deps) {
      if (d == "*") continue;
      if (d == layer.name)
        throw std::runtime_error("layers.json: layer '" + layer.name + "' depends on itself");
      if (!names.count(d))
        throw std::runtime_error("layers.json: layer '" + layer.name + "' depends on unknown layer '" +
                                 d + "'");
    }
  }
  // The layer DAG must be acyclic ("*" reaches everything, so a "*" layer
  // inside a cycle would already be caught through its named dependents).
  std::map<std::string, int> state;  // 0 unvisited, 1 on stack, 2 done
  std::map<std::string, const Layer*> by_name;
  for (const auto& layer : layers) by_name[layer.name] = &layer;
  const std::function<void(const Layer&, std::vector<std::string>&)> visit =
      [&](const Layer& layer, std::vector<std::string>& chain) {
        state[layer.name] = 1;
        chain.push_back(layer.name);
        for (const auto& d : layer.deps) {
          if (d == "*") continue;
          if (state[d] == 1) {
            std::string msg = "layers.json: cyclic layer DAG: ";
            const auto it = std::find(chain.begin(), chain.end(), d);
            for (auto c = it; c != chain.end(); ++c) msg += *c + " -> ";
            throw std::runtime_error(msg + d);
          }
          if (state[d] == 0) visit(*by_name.at(d), chain);
        }
        chain.pop_back();
        state[layer.name] = 2;
      };
  std::vector<std::string> chain;
  for (const auto& layer : layers)
    if (state[layer.name] == 0) visit(layer, chain);
  for (const auto& pm : private_modules) {
    if (!members_seen.count(pm.module))
      throw std::runtime_error("layers.json: private module '" + pm.module +
                               "' is not a member of any layer");
    if (pm.public_headers.empty())
      throw std::runtime_error("layers.json: private module '" + pm.module + "' has an empty facade");
  }
}

std::string LayerManifest::module_of(const std::string& path) const {
  std::string best;
  for (const auto& layer : layers)
    for (const auto& m : layer.members)
      if (m.size() > best.size() && module_pos(path, m) != std::string::npos) best = m;
  return best;
}

int LayerManifest::layer_of_module(const std::string& module) const {
  for (std::size_t i = 0; i < layers.size(); ++i)
    for (const auto& m : layers[i].members)
      if (m == module) return static_cast<int>(i);
  return -1;
}

LayerManifest parse_manifest(const std::string& text) {
  const json::Value doc = json::Value::parse(text);
  LayerManifest out;
  const json::Value* layers = doc.find("layers");
  if (layers == nullptr) throw std::runtime_error("layers.json: missing 'layers'");
  for (const auto& l : layers->items()) {
    LayerManifest::Layer layer;
    layer.name = l.get("name", "");
    const json::Value* members = l.find("members");
    const json::Value* deps = l.find("deps");
    if (members != nullptr) layer.members = string_list(*members, "members");
    if (deps != nullptr) layer.deps = string_list(*deps, "deps");
    out.layers.push_back(std::move(layer));
  }
  if (const json::Value* priv = doc.find("private"); priv != nullptr) {
    for (const auto& p : priv->items()) {
      LayerManifest::PrivateModule pm;
      pm.module = p.get("module", "");
      if (const json::Value* pub = p.find("public"); pub != nullptr)
        pm.public_headers = string_list(*pub, "public");
      if (const json::Value* af = p.find("allow_from"); af != nullptr)
        pm.allow_from = string_list(*af, "allow_from");
      out.private_modules.push_back(std::move(pm));
    }
  }
  out.validate();
  return out;
}

LayerManifest load_manifest(const std::string& path) {
  try {
    return parse_manifest(json::load_file(path).dump());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

namespace {

struct Include {
  int from = 0;  // file index
  int to = 0;
  int line = 0;
  std::string spelling;
};

/// Quoted-include directives with line numbers. The path spelling lives in
/// a string literal, which the stripped code view blanks — so the spelling
/// comes from the raw text, while the directive prefix must also survive in
/// the code view (a `#include` inside a comment or raw string is blanked
/// there and therefore ignored).
std::vector<std::pair<int, std::string>> extract_includes(const std::string& raw,
                                                          const std::string& code) {
  static const std::regex kInclude(R"re(^(\s*#\s*include\s*)"([^"\n]+)")re");
  std::vector<std::pair<int, std::string>> out;
  int line = 1;
  std::size_t begin = 0;
  while (begin <= raw.size()) {
    std::size_t end = raw.find('\n', begin);
    if (end == std::string::npos) end = raw.size();
    const std::string text = raw.substr(begin, end - begin);
    std::smatch m;
    if (std::regex_search(text, m, kInclude) &&
        code.compare(begin, m[1].length(), raw, begin, m[1].length()) == 0)
      out.emplace_back(line, m[2].str());
    begin = end + 1;
    ++line;
  }
  return out;
}

/// Tarjan strongly-connected components over the include graph, iterating
/// nodes and edges in sorted order so cycle reports are deterministic.
struct Tarjan {
  const std::vector<std::vector<int>>& adj;
  std::vector<int> index, low, comp;
  std::vector<bool> on_stack;
  std::vector<int> stack;
  int next_index = 0, next_comp = 0;

  explicit Tarjan(const std::vector<std::vector<int>>& a)
      : adj(a), index(a.size(), -1), low(a.size(), 0), comp(a.size(), -1), on_stack(a.size(), false) {
    for (int v = 0; v < static_cast<int>(a.size()); ++v)
      if (index[v] < 0) visit(v);
  }

  void visit(int v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (int w : adj[v]) {
      if (index[w] < 0) {
        visit(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] == index[v]) {
      while (true) {
        const int w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        comp[w] = next_comp;
        if (w == v) break;
      }
      ++next_comp;
    }
  }
};

}  // namespace

std::vector<Violation> archlint(const LayerManifest& manifest, const std::vector<ArchFile>& files) {
  namespace fs = std::filesystem;
  std::vector<Violation> out;

  // --- index files and resolve the module of each ---------------------------
  std::map<std::string, int> by_path;
  for (std::size_t i = 0; i < files.size(); ++i)
    by_path[files[i].path] = static_cast<int>(i);
  std::vector<std::string> module(files.size());
  std::vector<int> layer(files.size(), -1);
  for (std::size_t i = 0; i < files.size(); ++i) {
    module[i] = manifest.module_of(files[i].path);
    if (module[i].empty()) {
      out.push_back({files[i].path, 1, "layer-violation",
                     "file is not covered by any layer in the manifest (add its module to layers.json)"});
    } else {
      layer[i] = manifest.layer_of_module(module[i]);
    }
  }

  // --- build the include graph ----------------------------------------------
  // Resolution mirrors the build: first relative to the including file (the
  // quoted-include lookup rule), then as a project-relative path, i.e. a
  // unique component suffix of some scanned file. Unresolved = external.
  std::vector<Include> edges;
  std::vector<std::vector<int>> adj(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const auto& [line, inc] : extract_includes(*files[i].raw, *files[i].code)) {
      int to = -1;
      const fs::path sibling =
          (fs::path(files[i].path).parent_path() / inc).lexically_normal();
      if (const auto it = by_path.find(sibling.generic_string()); it != by_path.end()) {
        to = it->second;
      } else {
        int match = -1;
        bool ambiguous = false;
        const std::string suffix = "/" + inc;
        for (std::size_t j = 0; j < files.size(); ++j) {
          const std::string& p = files[j].path;
          const bool hit = p == inc || (p.size() > suffix.size() &&
                                        p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0);
          if (!hit) continue;
          if (match >= 0) ambiguous = true;
          match = static_cast<int>(j);
        }
        if (!ambiguous) to = match;  // ambiguous spellings cannot be attributed
      }
      if (to < 0) continue;
      edges.push_back({static_cast<int>(i), to, line, inc});
      adj[i].push_back(to);
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  // --- layer-violation: an edge to a layer the includer may not depend on ---
  for (const auto& e : edges) {
    if (layer[e.from] < 0 || layer[e.to] < 0) continue;  // unmapped reported above
    if (module[e.from] == module[e.to] || layer[e.from] == layer[e.to]) continue;
    const auto& from_layer = manifest.layers[static_cast<std::size_t>(layer[e.from])];
    const std::string& to_name = manifest.layers[static_cast<std::size_t>(layer[e.to])].name;
    const bool allowed =
        std::find(from_layer.deps.begin(), from_layer.deps.end(), "*") != from_layer.deps.end() ||
        std::find(from_layer.deps.begin(), from_layer.deps.end(), to_name) != from_layer.deps.end();
    if (allowed) continue;
    out.push_back({files[static_cast<std::size_t>(e.from)].path, e.line, "layer-violation",
                   "module '" + module[static_cast<std::size_t>(e.from)] + "' (layer " +
                       from_layer.name + ") may not include '" + e.spelling + "' from layer " +
                       to_name});
  }

  // --- private-include: internals of a module included past its facade ------
  for (const auto& e : edges) {
    const std::string& to_module = module[static_cast<std::size_t>(e.to)];
    if (to_module.empty() || module[static_cast<std::size_t>(e.from)] == to_module) continue;
    for (const auto& pm : manifest.private_modules) {
      if (pm.module != to_module) continue;
      if (std::find(pm.allow_from.begin(), pm.allow_from.end(),
                    module[static_cast<std::size_t>(e.from)]) != pm.allow_from.end())
        continue;
      const std::string& to_path = files[static_cast<std::size_t>(e.to)].path;
      const std::size_t p = module_pos(to_path, pm.module);
      const std::string rel =
          p == std::string::npos ? to_path : to_path.substr(p + pm.module.size() + 1);
      if (std::find(pm.public_headers.begin(), pm.public_headers.end(), rel) !=
          pm.public_headers.end())
        continue;
      out.push_back({files[static_cast<std::size_t>(e.from)].path, e.line, "private-include",
                     "'" + pm.module + "/" + rel + "' is internal to " + pm.module +
                         "; include one of its facade headers instead"});
    }
  }

  // --- include-cycle: one report per strongly-connected component -----------
  const Tarjan scc(adj);
  std::vector<std::vector<int>> comps(static_cast<std::size_t>(scc.next_comp));
  for (std::size_t i = 0; i < files.size(); ++i)
    comps[static_cast<std::size_t>(scc.comp[i])].push_back(static_cast<int>(i));
  for (auto& members : comps) {
    std::sort(members.begin(), members.end(), [&](int a, int b) {
      return files[static_cast<std::size_t>(a)].path < files[static_cast<std::size_t>(b)].path;
    });
    const bool self_loop =
        members.size() == 1 &&
        std::find(adj[static_cast<std::size_t>(members[0])].begin(),
                  adj[static_cast<std::size_t>(members[0])].end(),
                  members[0]) != adj[static_cast<std::size_t>(members[0])].end();
    if (members.size() < 2 && !self_loop) continue;
    // Walk a representative elementary cycle from the smallest path.
    const int start = members[0];
    std::vector<int> cycle{start};
    std::vector<bool> seen(files.size(), false);
    seen[static_cast<std::size_t>(start)] = true;
    const std::function<bool(int)> walk = [&](int v) {
      for (int w : adj[static_cast<std::size_t>(v)]) {
        if (scc.comp[w] != scc.comp[start]) continue;
        if (w == start) return true;
        if (seen[static_cast<std::size_t>(w)]) continue;
        seen[static_cast<std::size_t>(w)] = true;
        cycle.push_back(w);
        if (walk(w)) return true;
        cycle.pop_back();
      }
      return false;
    };
    if (!walk(start) && !self_loop) continue;
    std::string chain;
    for (const int v : cycle)
      chain += display(files[static_cast<std::size_t>(v)].path, module[static_cast<std::size_t>(v)]) +
               " -> ";
    chain += display(files[static_cast<std::size_t>(start)].path,
                     module[static_cast<std::size_t>(start)]);
    // Anchor the report at the include that leaves the smallest member.
    const int next = cycle.size() > 1 ? cycle[1] : start;
    int line = 1;
    for (const auto& e : edges)
      if (e.from == start && e.to == next) {
        line = e.line;
        break;
      }
    out.push_back({files[static_cast<std::size_t>(start)].path, line, "include-cycle",
                   "include cycle: " + chain});
  }

  return out;
}

}  // namespace detlint
