#include "graphio/stream/dynamic_components.hpp"

#include <algorithm>

#include "graphio/support/contracts.hpp"

namespace graphio::stream {

void DynamicComponents::reset(const DynamicGraph& g) {
  slots_.clear();
  component_of_.assign(static_cast<std::size_t>(g.id_limit()), -1);
  dirty_flag_.clear();
  dirty_list_.clear();
  rebuild_flag_.clear();
  rebuild_list_.clear();
  alive_count_ = 0;

  std::vector<VertexId> stack;
  for (VertexId root = 0; root < g.id_limit(); ++root) {
    if (!g.alive(root) ||
        component_of_[static_cast<std::size_t>(root)] != -1)
      continue;
    label_from(g, root, new_slot(), stack);
  }
}

void DynamicComponents::label_from(const DynamicGraph& g, VertexId root,
                                   int c, std::vector<VertexId>& stack) {
  Slot& slot = slots_[static_cast<std::size_t>(c)];
  stack.assign(1, root);
  component_of_[static_cast<std::size_t>(root)] = c;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    slot.vertices.push_back(v);
    for (std::span<const VertexId> neighbors :
         {g.children(v), g.parents(v)}) {
      for (VertexId w : neighbors) {
        if (component_of_[static_cast<std::size_t>(w)] != -1) continue;
        component_of_[static_cast<std::size_t>(w)] = c;
        stack.push_back(w);
      }
    }
  }
  std::sort(slot.vertices.begin(), slot.vertices.end());
}

int DynamicComponents::new_slot() {
  slots_.emplace_back();
  slots_.back().alive = true;
  dirty_flag_.push_back(false);
  rebuild_flag_.push_back(false);
  ++alive_count_;
  return static_cast<int>(slots_.size()) - 1;
}

void DynamicComponents::mark_dirty(int c) {
  if (dirty_flag_[static_cast<std::size_t>(c)]) return;
  dirty_flag_[static_cast<std::size_t>(c)] = true;
  dirty_list_.push_back(c);
}

void DynamicComponents::queue_rebuild(int c) {
  if (rebuild_flag_[static_cast<std::size_t>(c)]) return;
  rebuild_flag_[static_cast<std::size_t>(c)] = true;
  rebuild_list_.push_back(c);
}

void DynamicComponents::begin_patch() {
  GIO_EXPECTS_MSG(rebuild_list_.empty(),
                  "begin_patch before the previous patch was flushed");
  for (int c : dirty_list_) dirty_flag_[static_cast<std::size_t>(c)] = false;
  dirty_list_.clear();
}

void DynamicComponents::on_add_vertex(VertexId v) {
  GIO_EXPECTS(v >= 0);
  if (static_cast<std::size_t>(v) >= component_of_.size())
    component_of_.resize(static_cast<std::size_t>(v) + 1, -1);
  GIO_EXPECTS_MSG(component_of_[static_cast<std::size_t>(v)] == -1,
                  "vertex already labeled");
  const int c = new_slot();
  slots_[static_cast<std::size_t>(c)].vertices.push_back(v);
  component_of_[static_cast<std::size_t>(v)] = c;
  mark_dirty(c);
}

void DynamicComponents::on_add_edge(VertexId u, VertexId v) {
  const int cu = component_of(u);
  const int cv = component_of(v);
  if (cu == cv) {
    mark_dirty(cu);
    return;
  }
  // Weighted union: relabel and append the smaller side into the larger —
  // O(|smaller|), so a vertex relabels at most O(log n) times over any
  // insertion history. The kept list goes unsorted until flush() restores
  // order with one sort per dirty component.
  Slot& su = slots_[static_cast<std::size_t>(cu)];
  Slot& sv = slots_[static_cast<std::size_t>(cv)];
  const bool u_larger = su.vertices.size() >= sv.vertices.size();
  const int keep = u_larger ? cu : cv;
  const int drop = u_larger ? cv : cu;
  Slot& kept = u_larger ? su : sv;
  Slot& dropped = u_larger ? sv : su;
  for (VertexId w : dropped.vertices)
    component_of_[static_cast<std::size_t>(w)] = keep;
  kept.vertices.insert(kept.vertices.end(), dropped.vertices.begin(),
                       dropped.vertices.end());
  kept.sorted = false;
  dropped.vertices.clear();
  dropped.vertices.shrink_to_fit();
  dropped.alive = false;
  --alive_count_;
  mark_dirty(keep);
  // A queued rebuild of either side now covers the union.
  if (rebuild_flag_[static_cast<std::size_t>(drop)]) {
    rebuild_flag_[static_cast<std::size_t>(drop)] = false;
    queue_rebuild(keep);
  }
}

void DynamicComponents::on_remove_edge(VertexId u, VertexId v) {
  const int c = component_of(u);
  GIO_ASSERT(component_of(v) == c);
  (void)v;
  mark_dirty(c);
  queue_rebuild(c);
}

void DynamicComponents::on_remove_vertex(VertexId v) {
  const int c = component_of(v);
  Slot& slot = slots_[static_cast<std::size_t>(c)];
  const auto it =
      slot.sorted
          ? std::lower_bound(slot.vertices.begin(), slot.vertices.end(), v)
          : std::find(slot.vertices.begin(), slot.vertices.end(), v);
  GIO_ASSERT(it != slot.vertices.end() && *it == v);
  slot.vertices.erase(it);
  component_of_[static_cast<std::size_t>(v)] = -1;
  mark_dirty(c);
  if (slot.vertices.empty()) {
    slot.alive = false;
    --alive_count_;
    if (rebuild_flag_[static_cast<std::size_t>(c)]) {
      rebuild_flag_[static_cast<std::size_t>(c)] = false;
      std::erase(rebuild_list_, c);
    }
  } else {
    queue_rebuild(c);
  }
}

void DynamicComponents::flush(const DynamicGraph& g) {
  // Restore the ascending-order invariant on components whose lists went
  // unsorted through merges: one sort per dirty component per patch.
  for (int c : dirty_list_) {
    Slot& slot = slots_[static_cast<std::size_t>(c)];
    if (!slot.alive || slot.sorted) continue;
    std::sort(slot.vertices.begin(), slot.vertices.end());
    slot.sorted = true;
  }
  if (rebuild_list_.empty()) return;
  // Partial rebuild: BFS over the queued components' own vertices only —
  // clean components are never visited, read, or relabeled.
  std::vector<int> queued = std::move(rebuild_list_);
  rebuild_list_.clear();
  std::sort(queued.begin(), queued.end());
  std::vector<VertexId> stack;
  for (int c : queued) {
    rebuild_flag_[static_cast<std::size_t>(c)] = false;
    Slot& slot = slots_[static_cast<std::size_t>(c)];
    if (!slot.alive) continue;  // emptied or merged away after queueing
    const std::vector<VertexId> members = std::move(slot.vertices);
    slot.vertices.clear();
    // Unlabel, then re-grow pieces. Vertices of this component can only
    // connect within `members` (edges never leave a weak component).
    for (VertexId v : members) component_of_[static_cast<std::size_t>(v)] = -1;
    bool first_piece = true;
    for (VertexId root : members) {
      if (component_of_[static_cast<std::size_t>(root)] != -1) continue;
      // `members` ascends, so the first piece — which keeps id c —
      // contains the smallest member, and later pieces get fresh ids in
      // ascending smallest-vertex order: deterministic numbering.
      const int piece = first_piece ? c : new_slot();
      if (first_piece) {
        first_piece = false;
      } else {
        mark_dirty(piece);
      }
      label_from(g, root, piece, stack);
    }
  }
}

std::vector<int> DynamicComponents::component_ids() const {
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(alive_count_));
  for (std::size_t c = 0; c < slots_.size(); ++c)
    if (slots_[c].alive) ids.push_back(static_cast<int>(c));
  return ids;
}

std::vector<int> DynamicComponents::dirty() const {
  std::vector<int> ids;
  ids.reserve(dirty_list_.size());
  for (int c : dirty_list_)
    if (slots_[static_cast<std::size_t>(c)].alive) ids.push_back(c);
  std::sort(ids.begin(), ids.end());
  return ids;
}

int DynamicComponents::component_of(VertexId v) const {
  GIO_EXPECTS_MSG(v >= 0 &&
                      static_cast<std::size_t>(v) < component_of_.size() &&
                      component_of_[static_cast<std::size_t>(v)] != -1,
                  "vertex " + std::to_string(v) + " is not alive");
  return component_of_[static_cast<std::size_t>(v)];
}

const std::vector<VertexId>& DynamicComponents::vertices_of(int c) const {
  GIO_EXPECTS_MSG(c >= 0 && static_cast<std::size_t>(c) < slots_.size() &&
                      slots_[static_cast<std::size_t>(c)].alive,
                  "component " + std::to_string(c) + " is not alive");
  return slots_[static_cast<std::size_t>(c)].vertices;
}

Digraph DynamicComponents::subgraph(const DynamicGraph& g, int c) const {
  const std::vector<VertexId>& ids = vertices_of(c);
  // Mirrors WeakComponents::subgraph: local ids in ascending external-id
  // order, edge multiplicity and list order preserved. Requires a flushed
  // structure (flush() restores the ascending invariant after merges).
  GIO_ASSERT(slots_[static_cast<std::size_t>(c)].sorted);
  Digraph sub(static_cast<std::int64_t>(ids.size()));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const VertexId v = ids[i];
    for (VertexId w : g.children(v)) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), w);
      GIO_ASSERT(it != ids.end() && *it == w);
      sub.add_edge(static_cast<VertexId>(i),
                   static_cast<VertexId>(it - ids.begin()));
    }
    if (!g.name(v).empty()) sub.set_name(static_cast<VertexId>(i), g.name(v));
  }
  return sub;
}

bool DynamicComponents::matches(const DynamicGraph& g) const {
  // Compare partitions: same blocks regardless of numbering. Rebuild from
  // scratch and check that each structure's blocks are identical sets.
  DynamicComponents fresh(g);
  if (fresh.count() != alive_count_) return false;
  for (VertexId v = 0; v < g.id_limit(); ++v) {
    if (!g.alive(v)) continue;
    if (fresh.vertices_of(fresh.component_of(v)) !=
        vertices_of(component_of(v)))
      return false;
  }
  return true;
}

}  // namespace graphio::stream
