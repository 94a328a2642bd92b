#include "rules/weak_acyclicity.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace kbrepair {

namespace {

// The position dependency graph with dense node ids and its edges in
// compressed sparse rows. Each predicate occurring in a TGD owns a block
// of `arity` consecutive ids, numbered in first-occurrence order, so
// (predicate, position) pairs never share a node whatever the arity.
struct PositionGraph {
  int num_nodes = 0;
  // Out-edges of node v, regular and special alike, are
  // targets[first_edge[v] .. first_edge[v + 1]).
  std::vector<int> first_edge;
  std::vector<int> targets;
  // Special edges as (from, to) pairs.
  std::vector<std::pair<int, int>> special;
};

PositionGraph BuildPositionGraph(const std::vector<Tgd>& tgds,
                                 const SymbolTable& symbols) {
  PositionGraph graph;
  std::vector<int> block(symbols.num_predicates(), -1);
  auto node = [&](const Atom& atom, int pos) {
    int& first = block[static_cast<size_t>(atom.predicate)];
    if (first < 0) {
      first = graph.num_nodes;
      graph.num_nodes += symbols.predicate_arity(atom.predicate);
    }
    return first + pos;
  };

  struct Occurrence {
    TermId var;
    int node;
    bool operator<(const Occurrence& other) const { return var < other.var; }
  };
  std::vector<std::pair<int, int>> regular;
  std::vector<Occurrence> body;  // variable occurrences, sorted by var
  std::vector<int> existential;  // head nodes of existential variables
  for (const Tgd& tgd : tgds) {
    body.clear();
    for (const Atom& atom : tgd.body()) {
      for (int pos = 0; pos < atom.arity(); ++pos) {
        const TermId term = atom.args[static_cast<size_t>(pos)];
        if (symbols.IsVariable(term)) body.push_back({term, node(atom, pos)});
      }
    }
    std::sort(body.begin(), body.end());
    // A head variable with body occurrences is a frontier variable: a
    // regular edge from each of them. One without is existential.
    existential.clear();
    for (const Atom& atom : tgd.head()) {
      for (int pos = 0; pos < atom.arity(); ++pos) {
        const TermId term = atom.args[static_cast<size_t>(pos)];
        if (!symbols.IsVariable(term)) continue;
        const int to = node(atom, pos);
        const auto [lo, hi] =
            std::equal_range(body.begin(), body.end(), Occurrence{term, 0});
        if (lo == hi) existential.push_back(to);
        for (auto it = lo; it != hi; ++it) regular.emplace_back(it->node, to);
      }
    }
    if (existential.empty()) continue;
    for (TermId var : tgd.frontier_variables()) {
      const auto [lo, hi] =
          std::equal_range(body.begin(), body.end(), Occurrence{var, 0});
      for (auto it = lo; it != hi; ++it) {
        for (int to : existential) graph.special.emplace_back(it->node, to);
      }
    }
  }

  graph.first_edge.assign(static_cast<size_t>(graph.num_nodes) + 1, 0);
  for (const auto& edges : {&regular, &graph.special}) {
    for (const auto& [from, to] : *edges) {
      ++graph.first_edge[static_cast<size_t>(from) + 1];
    }
  }
  for (size_t v = 1; v < graph.first_edge.size(); ++v) {
    graph.first_edge[v] += graph.first_edge[v - 1];
  }
  graph.targets.resize(regular.size() + graph.special.size());
  std::vector<int> fill(graph.first_edge.begin(), graph.first_edge.end() - 1);
  for (const auto& edges : {&regular, &graph.special}) {
    for (const auto& [from, to] : *edges) {
      graph.targets[static_cast<size_t>(fill[static_cast<size_t>(from)]++)] =
          to;
    }
  }
  return graph;
}

// Iterative Tarjan SCC over the graph's edges; returns each node's
// component.
std::vector<int> StronglyConnectedComponents(const PositionGraph& graph) {
  const size_t n = static_cast<size_t>(graph.num_nodes);
  std::vector<int> component(n, -1);
  std::vector<int> index(n, -1);
  std::vector<int> lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<int> stack;
  int next_index = 0;
  int next_component = 0;

  struct Frame {
    int node;
    int next_edge;  // into graph.targets
  };
  std::vector<Frame> frames;
  auto visit = [&](int v) {
    index[static_cast<size_t>(v)] = next_index;
    lowlink[static_cast<size_t>(v)] = next_index;
    ++next_index;
    stack.push_back(v);
    on_stack[static_cast<size_t>(v)] = 1;
    frames.push_back(Frame{v, graph.first_edge[static_cast<size_t>(v)]});
  };

  for (int start = 0; start < graph.num_nodes; ++start) {
    if (index[static_cast<size_t>(start)] != -1) continue;
    visit(start);
    while (!frames.empty()) {
      const int v = frames.back().node;
      const size_t vi = static_cast<size_t>(v);
      if (frames.back().next_edge < graph.first_edge[vi + 1]) {
        const int w =
            graph.targets[static_cast<size_t>(frames.back().next_edge++)];
        const size_t wi = static_cast<size_t>(w);
        if (index[wi] == -1) {
          visit(w);
        } else if (on_stack[wi]) {
          lowlink[vi] = std::min(lowlink[vi], index[wi]);
        }
        continue;
      }
      if (lowlink[vi] == index[vi]) {
        while (true) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[static_cast<size_t>(w)] = 0;
          component[static_cast<size_t>(w)] = next_component;
          if (w == v) break;
        }
        ++next_component;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const size_t parent = static_cast<size_t>(frames.back().node);
        lowlink[parent] = std::min(lowlink[parent], lowlink[vi]);
      }
    }
  }
  return component;
}

}  // namespace

bool IsWeaklyAcyclic(const std::vector<Tgd>& tgds,
                     const SymbolTable& symbols) {
  const PositionGraph graph = BuildPositionGraph(tgds, symbols);
  if (graph.special.empty()) return true;
  const std::vector<int> component = StronglyConnectedComponents(graph);
  // A special edge inside one SCC lies on a cycle through itself.
  for (const auto& [from, to] : graph.special) {
    if (component[static_cast<size_t>(from)] ==
        component[static_cast<size_t>(to)]) {
      return false;
    }
  }
  return true;
}

Status CheckWeaklyAcyclic(const std::vector<Tgd>& tgds,
                          const SymbolTable& symbols) {
  if (IsWeaklyAcyclic(tgds, symbols)) return Status::Ok();
  return Status::FailedPrecondition(
      "TGD set is not weakly acyclic; the chase may not terminate "
      "(the paper restricts to weakly-acyclic TGDs, Section 2)");
}

}  // namespace kbrepair
