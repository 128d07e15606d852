#include "graphio/stream/dynamic_graph.hpp"

#include <algorithm>
#include <utility>

#include "graphio/support/contracts.hpp"

namespace graphio::stream {

namespace {

/// Erases one occurrence of `value` (the last, so the common remove-then-
/// re-add pattern stays cheap); returns the erased index, or -1 when
/// absent — the journal records it so rollback reinserts at the exact
/// spot.
std::ptrdiff_t erase_one(std::vector<VertexId>& list, VertexId value) {
  const auto rit = std::find(list.rbegin(), list.rend(), value);
  if (rit == list.rend()) return -1;
  const auto it = std::next(rit).base();
  const std::ptrdiff_t pos = it - list.begin();
  list.erase(it);
  return pos;
}

}  // namespace

DynamicGraph::DynamicGraph(const Digraph& g) {
  const std::int64_t n = g.num_vertices();
  out_.resize(static_cast<std::size_t>(n));
  in_.resize(static_cast<std::size_t>(n));
  alive_.assign(static_cast<std::size_t>(n), true);
  names_.resize(static_cast<std::size_t>(n));
  num_alive_ = n;
  num_edges_ = g.num_edges();
  for (VertexId v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    out_[i].assign(g.children(v).begin(), g.children(v).end());
    in_[i].assign(g.parents(v).begin(), g.parents(v).end());
    if (!g.name(v).empty()) names_[i] = g.name(v);
  }
}

void DynamicGraph::check_alive(VertexId v, const char* role) const {
  GIO_EXPECTS_MSG(v >= 0 && v < id_limit(),
                  std::string(role) + " vertex " + std::to_string(v) +
                      " does not exist (ids allocated: " +
                      std::to_string(id_limit()) + ")");
  GIO_EXPECTS_MSG(alive_[static_cast<std::size_t>(v)],
                  std::string(role) + " vertex " + std::to_string(v) +
                      " was removed");
}

VertexId DynamicGraph::add_vertex() {
  out_.emplace_back();
  in_.emplace_back();
  alive_.push_back(true);
  names_.emplace_back();
  ++num_alive_;
  if (journaling_) {
    Undo undo;
    undo.kind = Undo::Kind::kAddVertex;
    journal_.push_back(std::move(undo));
  }
  return id_limit() - 1;
}

void DynamicGraph::remove_vertex(VertexId v) {
  check_alive(v, "removed");
  const auto i = static_cast<std::size_t>(v);
  // Drop every incident multiplicity from the neighbors' mirror lists —
  // one erase per list occurrence, so parallel edges come out exactly.
  // Self-loops cannot exist, so v never appears in its own lists.
  num_edges_ -= static_cast<std::int64_t>(out_[i].size() + in_[i].size());
  Undo undo;
  undo.kind = Undo::Kind::kRemoveVertex;
  undo.v = v;
  for (VertexId w : out_[i]) {
    const std::ptrdiff_t pos = erase_one(in_[static_cast<std::size_t>(w)], v);
    GIO_ASSERT(pos >= 0);
    if (journaling_)
      undo.out_mirror.emplace_back(w, static_cast<std::size_t>(pos));
  }
  for (VertexId w : in_[i]) {
    const std::ptrdiff_t pos = erase_one(out_[static_cast<std::size_t>(w)], v);
    GIO_ASSERT(pos >= 0);
    if (journaling_)
      undo.in_mirror.emplace_back(w, static_cast<std::size_t>(pos));
  }
  if (journaling_) {
    undo.out_adj = std::move(out_[i]);
    undo.in_adj = std::move(in_[i]);
    undo.name = std::move(names_[i]);
    journal_.push_back(std::move(undo));
  }
  out_[i].clear();
  out_[i].shrink_to_fit();
  in_[i].clear();
  in_[i].shrink_to_fit();
  names_[i].clear();
  alive_[i] = false;
  --num_alive_;
}

void DynamicGraph::add_edge(VertexId u, VertexId v) {
  check_alive(u, "edge source");
  check_alive(v, "edge target");
  GIO_EXPECTS_MSG(u != v, "self-loops are not allowed");
  out_[static_cast<std::size_t>(u)].push_back(v);
  in_[static_cast<std::size_t>(v)].push_back(u);
  ++num_edges_;
  if (journaling_) {
    Undo undo;
    undo.kind = Undo::Kind::kAddEdge;
    undo.u = u;
    undo.v = v;
    journal_.push_back(std::move(undo));
  }
}

void DynamicGraph::remove_edge(VertexId u, VertexId v) {
  check_alive(u, "edge source");
  check_alive(v, "edge target");
  const std::ptrdiff_t out_pos =
      erase_one(out_[static_cast<std::size_t>(u)], v);
  GIO_EXPECTS_MSG(out_pos >= 0,
                  "edge " + std::to_string(u) + " -> " + std::to_string(v) +
                      " does not exist");
  const std::ptrdiff_t in_pos = erase_one(in_[static_cast<std::size_t>(v)], u);
  GIO_ASSERT(in_pos >= 0);
  --num_edges_;
  if (journaling_) {
    Undo undo;
    undo.kind = Undo::Kind::kRemoveEdge;
    undo.u = u;
    undo.v = v;
    undo.out_pos = static_cast<std::size_t>(out_pos);
    undo.in_pos = static_cast<std::size_t>(in_pos);
    journal_.push_back(std::move(undo));
  }
}

void DynamicGraph::begin_journal() {
  journal_.clear();
  journaling_ = true;
}

void DynamicGraph::commit_journal() {
  journal_.clear();
  journaling_ = false;
}

void DynamicGraph::rollback_journal() {
  GIO_EXPECTS_MSG(journaling_,
                  "rollback_journal without a begin_journal in effect");
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it)
    undo_one(*it);
  journal_.clear();
  journaling_ = false;
}

void DynamicGraph::undo_one(const Undo& undo) {
  switch (undo.kind) {
    case Undo::Kind::kAddVertex: {
      // Later undos already removed anything that referenced the tail id.
      GIO_ASSERT(!out_.empty() && out_.back().empty() && in_.back().empty() &&
                 alive_.back());
      out_.pop_back();
      in_.pop_back();
      alive_.pop_back();
      names_.pop_back();
      --num_alive_;
      return;
    }
    case Undo::Kind::kAddEdge: {
      std::vector<VertexId>& ou = out_[static_cast<std::size_t>(undo.u)];
      std::vector<VertexId>& iv = in_[static_cast<std::size_t>(undo.v)];
      // The edge was pushed at the back; every later append is undone by
      // now, so the back is exactly this edge.
      GIO_ASSERT(!ou.empty() && ou.back() == undo.v);
      GIO_ASSERT(!iv.empty() && iv.back() == undo.u);
      ou.pop_back();
      iv.pop_back();
      --num_edges_;
      return;
    }
    case Undo::Kind::kRemoveEdge: {
      std::vector<VertexId>& ou = out_[static_cast<std::size_t>(undo.u)];
      std::vector<VertexId>& iv = in_[static_cast<std::size_t>(undo.v)];
      ou.insert(ou.begin() + static_cast<std::ptrdiff_t>(undo.out_pos),
                undo.v);
      iv.insert(iv.begin() + static_cast<std::ptrdiff_t>(undo.in_pos),
                undo.u);
      ++num_edges_;
      return;
    }
    case Undo::Kind::kRemoveVertex: {
      const auto i = static_cast<std::size_t>(undo.v);
      // Reverse of execution order: the in_-side mirrors were erased
      // last, so they are restored first; within each side, newest erase
      // first keeps every recorded index exact.
      for (auto it = undo.in_mirror.rbegin(); it != undo.in_mirror.rend();
           ++it) {
        std::vector<VertexId>& list =
            out_[static_cast<std::size_t>(it->first)];
        list.insert(list.begin() + static_cast<std::ptrdiff_t>(it->second),
                    undo.v);
      }
      for (auto it = undo.out_mirror.rbegin(); it != undo.out_mirror.rend();
           ++it) {
        std::vector<VertexId>& list =
            in_[static_cast<std::size_t>(it->first)];
        list.insert(list.begin() + static_cast<std::ptrdiff_t>(it->second),
                    undo.v);
      }
      out_[i] = undo.out_adj;
      in_[i] = undo.in_adj;
      names_[i] = undo.name;
      alive_[i] = true;
      ++num_alive_;
      num_edges_ +=
          static_cast<std::int64_t>(undo.out_adj.size() + undo.in_adj.size());
      return;
    }
  }
}

std::span<const VertexId> DynamicGraph::children(VertexId v) const {
  check_alive(v, "queried");
  return out_[static_cast<std::size_t>(v)];
}

std::span<const VertexId> DynamicGraph::parents(VertexId v) const {
  check_alive(v, "queried");
  return in_[static_cast<std::size_t>(v)];
}

void DynamicGraph::set_name(VertexId v, std::string name) {
  check_alive(v, "named");
  names_[static_cast<std::size_t>(v)] = std::move(name);
}

const std::string& DynamicGraph::name(VertexId v) const {
  check_alive(v, "queried");
  return names_[static_cast<std::size_t>(v)];
}

Digraph DynamicGraph::materialize() const {
  std::vector<VertexId> local_of(static_cast<std::size_t>(id_limit()), -1);
  VertexId next = 0;
  for (VertexId v = 0; v < id_limit(); ++v)
    if (alive_[static_cast<std::size_t>(v)])
      local_of[static_cast<std::size_t>(v)] = next++;
  Digraph g(num_alive_);
  for (VertexId v = 0; v < id_limit(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (!alive_[i]) continue;
    const VertexId lv = local_of[i];
    for (VertexId w : out_[i])
      g.add_edge(lv, local_of[static_cast<std::size_t>(w)]);
    if (!names_[i].empty()) g.set_name(lv, names_[i]);
  }
  return g;
}

}  // namespace graphio::stream
