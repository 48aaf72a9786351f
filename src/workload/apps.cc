#include "workload/apps.hh"

#include "sim/logging.hh"
#include "workload/barnes.hh"
#include "workload/fft.hh"
#include "workload/kvstore.hh"
#include "workload/lu.hh"
#include "workload/mp3d.hh"
#include "workload/ocean.hh"
#include "workload/radix.hh"
#include "workload/water.hh"

namespace prism {

namespace {

template <typename W, typename P>
AppSpec
spec(std::string name, P params)
{
    return AppSpec{std::move(name),
                   [params] { return std::make_unique<W>(params); }};
}

} // namespace

std::vector<AppSpec>
standardApps(AppScale scale)
{
    BarnesWorkload::Params barnes;
    FftWorkload::Params fft;
    LuWorkload::Params lu;
    Mp3dWorkload::Params mp3d;
    OceanWorkload::Params ocean;
    RadixWorkload::Params radix;
    WaterParams nsq;
    WaterParams spa;

    switch (scale) {
      case AppScale::Paper:
        // Table 2 data sets (LU at 384^2 to bound simulation time;
        // the block/cache ratios that drive the results are kept).
        barnes = {8192, 4, 1.0, 7};
        fft = {16};
        lu = {384, 16};
        mp3d = {20000, 5, 16, 11};
        ocean = {258, 4, 2};
        radix = {1u << 20, 1024, 30, 42};
        nsq = {512, 3, 0.45, 23, 400};
        spa = {512, 3, 0.25, 23, 1500};
        break;
      case AppScale::Small:
        barnes = {1024, 2, 1.0, 7};
        fft = {12};
        lu = {128, 16};
        mp3d = {4000, 2, 12, 11};
        ocean = {66, 2, 1};
        radix = {1u << 16, 1024, 30, 42};
        nsq = {216, 2, 0.45, 23, 400};
        spa = {216, 2, 0.25, 23, 1500};
        break;
      case AppScale::Tiny:
        barnes = {256, 1, 1.2, 7};
        fft = {8};
        lu = {64, 16};
        mp3d = {500, 1, 8, 11};
        ocean = {34, 1, 1};
        radix = {1u << 12, 256, 24, 42};
        nsq = {64, 1, 0.45, 23, 400};
        spa = {64, 1, 0.3, 23, 1500};
        break;
    }

    std::vector<AppSpec> out;
    out.push_back(spec<BarnesWorkload>("Barnes", barnes));
    out.push_back(spec<FftWorkload>("FFT", fft));
    out.push_back(spec<LuWorkload>("LU", lu));
    out.push_back(spec<Mp3dWorkload>("MP3D", mp3d));
    out.push_back(spec<OceanWorkload>("Ocean", ocean));
    out.push_back(spec<RadixWorkload>("Radix", radix));
    out.push_back(spec<WaterNsqWorkload>("Water-Nsq", nsq));
    out.push_back(spec<WaterSpaWorkload>("Water-Spa", spa));
    out.push_back(spec<KvStoreWorkload>("KV", kvParamsFor(scale)));
    return out;
}

std::unique_ptr<Workload>
makeApp(const std::string &name, AppScale scale)
{
    for (auto &s : standardApps(scale)) {
        if (s.name == name)
            return s.make();
    }
    fatal("unknown application '%s'", name.c_str());
}

} // namespace prism
