#include "cluster/bandwidth_matrix.h"

#include <limits>

namespace pipette::cluster {

BandwidthMatrix::BandwidthMatrix(int num_nodes, int gpus_per_node, double fill)
    : nn_(num_nodes),
      gpn_(gpus_per_node),
      inter_(static_cast<std::size_t>(num_nodes) * num_nodes, fill),
      intra_(static_cast<std::size_t>(num_nodes) * gpus_per_node * gpus_per_node, fill) {
  for (int n = 0; n < nn_; ++n) {
    set_inter(n, n, std::numeric_limits<double>::infinity());
    for (int a = 0; a < gpn_; ++a) set_intra(n, a, a, std::numeric_limits<double>::infinity());
  }
}

}  // namespace pipette::cluster
