// Shared test helpers for the convex min-cut sweep: the exhaustive
// reference the pruned sweep must reproduce, and a scope that runs the
// sweep's parallel path on a team of more than one thread.
#pragma once

#include <cstdint>

#include "graphio/flow/convex_mincut.hpp"

#if defined(GRAPHIO_HAS_OPENMP)
#include <omp.h>
#endif

namespace graphio::testing_support {

struct SweepReference {
  std::int64_t best_cut = 0;
  VertexId best_vertex = -1;
};

/// max_v C(v) by one max-flow per vertex; ties keep the lowest index.
inline SweepReference exhaustive_sweep(const Digraph& g) {
  SweepReference ref;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::int64_t cut = flow::wavefront_mincut(g, v);
    if (ref.best_vertex < 0 || cut > ref.best_cut) {
      ref.best_cut = cut;
      ref.best_vertex = v;
    }
  }
  return ref;
}

/// While alive, OpenMP parallel regions use four threads whatever
/// OMP_NUM_THREADS says. Builds without OpenMP already use every
/// hardware thread.
class FourThreadTeam {
 public:
#if defined(GRAPHIO_HAS_OPENMP)
  FourThreadTeam() : previous_(omp_get_max_threads()) {
    omp_set_num_threads(4);
  }
  ~FourThreadTeam() { omp_set_num_threads(previous_); }

 private:
  int previous_;
#endif
};

}  // namespace graphio::testing_support
