/**
 * @file
 * Representative-warp selection (paper Section III-C).
 *
 * Each warp is reduced to the 2-D feature vector of Eq. 6 —
 * (warp performance, instruction count), both normalized by their
 * averages — and 2-cluster k-means picks the warp closest to the
 * center of the largest cluster. The MAX/MIN selectors of Figure 7
 * are provided for the comparison bench.
 */

#ifndef GPUMECH_CORE_REPRESENTATIVE_HH
#define GPUMECH_CORE_REPRESENTATIVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/interval.hh"
#include "core/kmeans.hh"

namespace gpumech
{

/** Representative-warp selection method (Figure 7). */
enum class RepSelection
{
    Clustering, //!< k-means, largest cluster's center (the paper's pick)
    MaxPerf,    //!< warp with the maximum single-warp IPC
    MinPerf,    //!< warp with the minimum single-warp IPC
};

/** Human-readable selection name. */
std::string toString(RepSelection sel);

/**
 * Build the Eq. 6 feature vectors: each warp's performance and
 * instruction count, normalized by their averages over @p warps.
 */
std::vector<FeatureVector>
warpFeatures(const std::vector<WarpFeatures> &warps);

/**
 * Pick the representative warp.
 *
 * @param warps Eq. 6 inputs of every warp (non-empty; see
 *        buildAllFeatures)
 * @param sel selection method
 * @param num_clusters k for the Clustering method (the paper uses 2)
 * @return index into @p warps of the representative warp
 */
std::uint32_t selectRepresentative(
    const std::vector<WarpFeatures> &warps,
    RepSelection sel = RepSelection::Clustering,
    std::uint32_t num_clusters = 2);

} // namespace gpumech

#endif // GPUMECH_CORE_REPRESENTATIVE_HH
