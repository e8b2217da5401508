#include "grooming/batch.hpp"

#include <string>

#include "algorithms/workspace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tgroom {

std::vector<BatchCellResult> BatchGroomer::run(
    const std::vector<BatchCell>& cells) const {
  std::vector<BatchCellResult> results(cells.size());
  pool_->parallel_for_chunks(
      cells.size(), [&](std::size_t begin, std::size_t end) {
        // One warm workspace per thread, kept across chunks AND run()
        // calls; reset() rewinds it without dropping capacity.  Each chunk
        // runs on exactly one thread, so no sharing within a run; output
        // is workspace-independent by the GroomingWorkspace contract.
        // The cell's CSR snapshot is kept the same way; it is not the
        // workspace's own csr, which Brauner and Regular_Euler grow.
        thread_local GroomingWorkspace workspace;
        thread_local CsrGraph snapshot;
        workspace.reset();
        for (std::size_t i = begin; i < end; ++i) {
          const BatchCell& cell = cells[i];
          TGROOM_CHECK_MSG(cell.graph != nullptr, "batch cell has no graph");
          snapshot.rebuild(*cell.graph);
          EdgePartition partition = run_algorithm(
              cell.algorithm, snapshot, cell.k, cell.options, &workspace);
          if (config_.validate) {
            PartitionValidation valid =
                validate_partition(*cell.graph, partition);
            TGROOM_CHECK_MSG(valid.ok,
                             std::string("batch produced an invalid "
                                         "partition: ") +
                                 valid.reason);
          }
          BatchCellResult& result = results[i];
          result.sadms = sadm_cost(snapshot, partition);
          result.wavelengths = partition.wavelength_count();
          result.lower_bound = partition_cost_lower_bound(snapshot, cell.k);
          if (config_.keep_partitions) {
            result.partition = std::move(partition);
          }
        }
      });
  return results;
}

std::uint64_t BatchGroomer::cell_seed(std::uint64_t base_seed,
                                      std::size_t index) {
  std::uint64_t state =
      base_seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1);
  return splitmix64(state);
}

}  // namespace tgroom
