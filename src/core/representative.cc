#include "core/representative.hh"

#include "common/logging.hh"

namespace gpumech
{

std::string
toString(RepSelection sel)
{
    switch (sel) {
      case RepSelection::Clustering:
        return "Clustering";
      case RepSelection::MaxPerf:
        return "MAX";
      case RepSelection::MinPerf:
        return "MIN";
    }
    return "?";
}

std::vector<FeatureVector>
warpFeatures(const std::vector<WarpFeatures> &warps)
{
    if (warps.empty())
        panic("warpFeatures: no warps");

    double avg_perf = 0.0;
    double avg_insts = 0.0;
    for (const WarpFeatures &w : warps) {
        avg_perf += w.perf;
        avg_insts += static_cast<double>(w.insts);
    }
    avg_perf /= static_cast<double>(warps.size());
    avg_insts /= static_cast<double>(warps.size());
    if (avg_perf == 0.0 || avg_insts == 0.0)
        panic("warpFeatures: degenerate warps (zero average)");

    std::vector<FeatureVector> features;
    features.reserve(warps.size());
    for (const WarpFeatures &w : warps) {
        features.push_back({w.perf / avg_perf,
                            static_cast<double>(w.insts) / avg_insts});
    }
    return features;
}

std::uint32_t
selectRepresentative(const std::vector<WarpFeatures> &warps,
                     RepSelection sel, std::uint32_t num_clusters)
{
    if (warps.empty())
        panic("selectRepresentative: no warps");
    if (warps.size() == 1)
        return 0;

    if (sel == RepSelection::MaxPerf || sel == RepSelection::MinPerf) {
        std::uint32_t best = 0;
        for (std::uint32_t i = 1; i < warps.size(); ++i) {
            double a = warps[i].perf;
            double b = warps[best].perf;
            bool better = sel == RepSelection::MaxPerf ? a > b : a < b;
            if (better)
                best = i;
        }
        return best;
    }

    auto features = warpFeatures(warps);
    KmeansResult clusters = kmeans(features, num_clusters);
    std::uint32_t largest = clusters.largestCluster();
    return clusters.closestToCenter(features, largest);
}

} // namespace gpumech
