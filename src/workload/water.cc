#include "workload/water.hh"

#include <cmath>

namespace prism {

std::string
WaterBase::sizeDesc() const
{
    return std::to_string(params_.molecules) + " molecules, " +
           std::to_string(params_.iters) + " iters";
}

void
WaterBase::setup(Machine &m)
{
    const std::uint64_t mb = std::uint64_t{params_.molecules} * 128;
    const std::uint64_t fb = std::uint64_t{params_.molecules} * 64;
    GlobalArena arena(m, /*key=*/0x3A7E4, mb + fb + 8 * kPageBytes);
    mols_ = SimArray{arena.allocPages(mb), 128};
    forces_ = SimArray{arena.allocPages(fb), 64};

    Rng rng(params_.seed);
    pos_.resize(params_.molecules);
    for (auto &p : pos_)
        p = P3{rng.uniform(), rng.uniform(), rng.uniform()};
}

double
WaterBase::dist2(std::uint32_t i, std::uint32_t j) const
{
    auto pbc = [](double d) {
        if (d > 0.5)
            d -= 1.0;
        if (d < -0.5)
            d += 1.0;
        return d;
    };
    const double dx = pbc(pos_[i].x - pos_[j].x);
    const double dy = pbc(pos_[i].y - pos_[j].y);
    const double dz = pbc(pos_[i].z - pos_[j].z);
    return dx * dx + dy * dy + dz * dz;
}

CoTask
WaterBase::intraAndUpdate(Proc &p, std::uint32_t m0, std::uint32_t m1)
{
    for (std::uint32_t i = m0; i < m1; ++i) {
        // Intra-molecule forces: both lines of the record.
        co_await p.read(mols_.at(i));
        co_await p.read(VAddr{mols_.at(i).raw + 64});
        co_await p.write(mols_.at(i));
        co_await p.write(VAddr{mols_.at(i).raw + 64});
        co_await p.read(forces_.at(i));
        co_await p.write(forces_.at(i));
        p.compute(600);
    }
}

CoTask
WaterNsqWorkload::body(Proc &p, std::uint32_t tid, std::uint32_t nt)
{
    const std::uint32_t n = params_.molecules;
    const std::uint32_t per = n / nt;
    const std::uint32_t m0 = tid * per;
    const std::uint32_t m1 = (tid + 1 == nt) ? n : m0 + per;
    const double rc2 = params_.cutoff * params_.cutoff;

    PrivArena priv(p.id());
    SimArray local_acc{priv.alloc(std::uint64_t{per + nt} * 64), 64};

    if (tid == 0) { // master init
        for (std::uint32_t i = 0; i < n; ++i) {
            co_await p.write(mols_.at(i));
            co_await p.write(forces_.at(i));
            p.compute(4);
        }
    }

    co_await p.barrier(0);
    if (tid == 0)
        co_await p.beginParallel();
    co_await p.barrier(0);

    for (std::uint32_t it = 0; it < params_.iters; ++it) {
        co_await intraAndUpdate(p, m0, m1);
        co_await p.barrier(0);

        // All-pairs inter-molecular forces.
        for (std::uint32_t i = m0; i < m1; ++i) {
            for (std::uint32_t j = i + 1; j < n; ++j) {
                co_await p.read(mols_.at(j));
                p.compute(20);
                if (dist2(i, j) >= rc2)
                    continue;
                p.compute(params_.pairCompute);
                // Accumulate own side privately; partner under lock.
                co_await p.write(local_acc.at(i - m0));
                co_await p.lock(5000 + j);
                co_await p.read(forces_.at(j));
                co_await p.write(forces_.at(j));
                co_await p.unlock(5000 + j);
            }
        }
        co_await p.barrier(0);

        // Fold private accumulation into the shared force array and
        // advance positions.
        for (std::uint32_t i = m0; i < m1; ++i) {
            co_await p.read(local_acc.at(i - m0));
            co_await p.read(forces_.at(i));
            co_await p.write(forces_.at(i));
            co_await p.write(mols_.at(i));
            pos_[i].x = std::fmod(pos_[i].x + 0.003 + 1.0, 1.0);
            pos_[i].y = std::fmod(pos_[i].y + 0.001 + 1.0, 1.0);
            pos_[i].z = std::fmod(pos_[i].z + 0.002 + 1.0, 1.0);
            p.compute(60);
        }
        co_await p.barrier(0);
    }

    if (tid == 0)
        co_await p.endParallel();
}

std::uint32_t
WaterSpaWorkload::boxOf(const P3 &pos, std::uint32_t dim) const
{
    auto idx = [dim](double v) {
        auto i = static_cast<std::uint32_t>(v * dim);
        return i >= dim ? dim - 1 : i;
    };
    return (idx(pos.x) * dim + idx(pos.y)) * dim + idx(pos.z);
}

CoTask
WaterSpaWorkload::body(Proc &p, std::uint32_t tid, std::uint32_t nt)
{
    const std::uint32_t n = params_.molecules;
    const double rc2 = params_.cutoff * params_.cutoff;
    const auto dim =
        static_cast<std::uint32_t>(1.0 / params_.cutoff); // boxes/side
    const std::uint32_t boxes = dim * dim * dim;

    if (tid == 0) { // master init
        for (std::uint32_t i = 0; i < n; ++i) {
            co_await p.write(mols_.at(i));
            co_await p.write(forces_.at(i));
            p.compute(4);
        }
    }

    co_await p.barrier(0);
    if (tid == 0)
        co_await p.beginParallel();
    co_await p.barrier(0);

    // The cell list, rebuilt host-side each step (each proc its own
    // copy; the real app reads positions it already owns for this).
    // Cleared rather than rebuilt, so a step allocates nothing once
    // the boxes have grown.
    std::vector<std::vector<std::uint32_t>> boxlist(boxes);
    for (std::uint32_t it = 0; it < params_.iters; ++it) {
        for (auto &box : boxlist)
            box.clear();
        for (std::uint32_t i = 0; i < n; ++i)
            boxlist[boxOf(pos_[i], dim)].push_back(i);

        // Spatial ownership: processors own box ranges, giving the
        // neighbour-local sharing of the spatial variant.
        const std::uint32_t bper = (boxes + nt - 1) / nt;
        const std::uint32_t bx0 = tid * bper;
        const std::uint32_t bx1 =
            bx0 + bper > boxes ? boxes : bx0 + bper;

        for (std::uint32_t b = bx0; b < bx1; ++b) {
            const std::uint32_t bz = b % dim;
            const std::uint32_t by = (b / dim) % dim;
            const std::uint32_t bxx = b / (dim * dim);
            for (std::uint32_t i : boxlist[b]) {
                co_await p.read(mols_.at(i));
                // Visit the 27 neighbouring boxes.
                for (int dx = -1; dx <= 1; ++dx) {
                    for (int dy = -1; dy <= 1; ++dy) {
                        for (int dz = -1; dz <= 1; ++dz) {
                            const std::uint32_t nb =
                                ((bxx + dx + dim) % dim * dim +
                                 (by + dy + dim) % dim) *
                                    dim +
                                (bz + dz + dim) % dim;
                            for (std::uint32_t j : boxlist[nb]) {
                                if (j <= i)
                                    continue;
                                co_await p.read(mols_.at(j));
                                p.compute(20);
                                if (dist2(i, j) >= rc2)
                                    continue;
                                p.compute(params_.pairCompute);
                                co_await p.lock(5000 + j);
                                co_await p.read(forces_.at(j));
                                co_await p.write(forces_.at(j));
                                co_await p.unlock(5000 + j);
                            }
                        }
                    }
                }
                co_await p.read(forces_.at(i));
                co_await p.write(forces_.at(i));
            }
        }
        co_await p.barrier(0);

        // Update the molecules in the owned boxes.
        for (std::uint32_t b = bx0; b < bx1; ++b) {
            for (std::uint32_t i : boxlist[b]) {
                co_await p.read(mols_.at(i));
                co_await p.write(mols_.at(i));
                pos_[i].x = std::fmod(pos_[i].x + 0.003 + 1.0, 1.0);
                pos_[i].y = std::fmod(pos_[i].y + 0.001 + 1.0, 1.0);
                pos_[i].z = std::fmod(pos_[i].z + 0.002 + 1.0, 1.0);
                p.compute(20);
            }
        }
        co_await p.barrier(0);
    }

    if (tid == 0)
        co_await p.endParallel();
}

} // namespace prism
