#include "workload/barnes.hh"

#include <algorithm>
#include <cmath>
#include <vector>

namespace prism {

BarnesWorkload::BarnesWorkload(const Params &p) : params_(p) {}

std::string
BarnesWorkload::sizeDesc() const
{
    return std::to_string(params_.bodies) + " particles, " +
           std::to_string(params_.iters) + " iters";
}

void
BarnesWorkload::setup(Machine &m)
{
    maxCells_ = params_.bodies * 8 + 64;
    const std::uint64_t bb = std::uint64_t{params_.bodies} * 64;
    const std::uint64_t cb = std::uint64_t{maxCells_} * 128;
    GlobalArena arena(m, /*key=*/0xBA0E5, bb + cb + 8 * kPageBytes);
    bodies_ = SimArray{arena.allocPages(bb), 64};
    cells_ = SimArray{arena.allocPages(cb), 128};

    Rng rng(params_.seed);
    pos_.resize(params_.bodies);
    vel_.resize(params_.bodies);
    for (std::uint32_t b = 0; b < params_.bodies; ++b) {
        pos_[b] = Vec{rng.uniform(), rng.uniform(), rng.uniform()};
        vel_[b] = Vec{rng.uniform() * 0.01, rng.uniform() * 0.01,
                      rng.uniform() * 0.01};
    }
    // Spatial (Morton-order) body assignment, modelling SPLASH
    // Barnes' costzones partitioning: each processor's bodies are
    // spatially coherent, so consecutive force traversals reuse the
    // same tree-path pages.
    std::vector<std::uint32_t> order(params_.bodies);
    for (std::uint32_t b = 0; b < params_.bodies; ++b)
        order[b] = b;
    auto morton = [this](std::uint32_t b) {
        auto q = [](double v) {
            return static_cast<std::uint32_t>(v * 1023.0) & 1023u;
        };
        std::uint32_t x = q(pos_[b].x), y = q(pos_[b].y),
                      z = q(pos_[b].z);
        std::uint64_t key = 0;
        for (int bit = 9; bit >= 0; --bit) {
            key = (key << 3) | (((x >> bit) & 1u) << 2) |
                  (((y >> bit) & 1u) << 1) | ((z >> bit) & 1u);
        }
        return key;
    };
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return morton(a) < morton(b);
              });
    std::vector<Vec> sp(params_.bodies), sv(params_.bodies);
    for (std::uint32_t i = 0; i < params_.bodies; ++i) {
        sp[i] = pos_[order[i]];
        sv[i] = vel_[order[i]];
    }
    pos_ = std::move(sp);
    vel_ = std::move(sv);
    tree_.reserve(maxCells_);
}

int
BarnesWorkload::newCell(const Vec &center, double half, bool leaf,
                        int body)
{
    prism_assert(tree_.size() < maxCells_, "barnes tree overflow");
    Cell c;
    for (auto &ch : c.child)
        ch = -1;
    c.center = center;
    c.half = half;
    c.leaf = leaf;
    c.bodyIdx = body;
    tree_.push_back(c);
    return static_cast<int>(tree_.size() - 1);
}

int
BarnesWorkload::octantOf(const Cell &c, const Vec &p) const
{
    return (p.x > c.center.x ? 1 : 0) | (p.y > c.center.y ? 2 : 0) |
           (p.z > c.center.z ? 4 : 0);
}

BarnesWorkload::Vec
BarnesWorkload::childCenter(const Cell &c, int oct) const
{
    const double h = c.half / 2;
    return Vec{c.center.x + ((oct & 1) ? h : -h),
               c.center.y + ((oct & 2) ? h : -h),
               c.center.z + ((oct & 4) ? h : -h)};
}

void
BarnesWorkload::resetTree()
{
    tree_.clear();
    newCell(Vec{0.5, 0.5, 0.5}, 0.5, false, -1);
}

void
BarnesWorkload::computeMass(int idx)
{
    Cell &c = tree_[idx];
    if (c.leaf) {
        c.mass = 1.0;
        c.com = pos_[c.bodyIdx];
        return;
    }
    c.mass = 0;
    c.com = Vec{};
    for (int ch : c.child) {
        if (ch < 0)
            continue;
        computeMass(ch);
        const Cell &k = tree_[ch];
        c.mass += k.mass;
        c.com.x += k.com.x * k.mass;
        c.com.y += k.com.y * k.mass;
        c.com.z += k.com.z * k.mass;
    }
    if (c.mass > 0) {
        c.com.x /= c.mass;
        c.com.y /= c.mass;
        c.com.z /= c.mass;
    }
}

CoTask
BarnesWorkload::insertBody(Proc &p, std::uint32_t b)
{
    const Vec bp = pos_[b];
    int idx = 0;
    // The bound counts loop iterations, which include lock retries and
    // split-and-retry steps, not only tree depth.
    for (int iter = 0; iter < 100000; ++iter) {
        co_await p.read(cells_.at(idx));
        const int oct = octantOf(tree_[idx], bp);
        const int child = tree_[idx].child[oct];
        if (child < 0) {
            co_await p.lock(1000 + idx);
            // Re-check: another processor may have filled the slot.
            if (tree_[idx].child[oct] < 0) {
                const int leaf = newCell(childCenter(tree_[idx], oct),
                                         tree_[idx].half / 2, true,
                                         static_cast<int>(b));
                tree_[idx].child[oct] = leaf;
                co_await p.write(cells_.at(leaf));
                co_await p.write(cells_.at(idx));
                co_await p.unlock(1000 + idx);
                co_return;
            }
            co_await p.unlock(1000 + idx);
            continue; // descend through the newly filled slot
        }
        if (tree_[child].leaf) {
            co_await p.lock(1000 + idx);
            if (tree_[idx].child[oct] == child && tree_[child].leaf) {
                // Split: replace the leaf with an internal cell
                // holding the displaced body.
                const int other = tree_[child].bodyIdx;
                const int internal =
                    newCell(childCenter(tree_[idx], oct),
                            tree_[idx].half / 2, false, -1);
                const int oo = octantOf(tree_[internal], pos_[other]);
                tree_[internal].child[oo] = child;
                tree_[child].center =
                    childCenter(tree_[internal], oo);
                tree_[child].half = tree_[internal].half / 2;
                tree_[idx].child[oct] = internal;
                co_await p.write(cells_.at(internal));
                co_await p.write(cells_.at(idx));
            }
            co_await p.unlock(1000 + idx);
            // Retry from the same level (slot now internal).
            continue;
        }
        idx = child;
        p.compute(4);
    }
    panic("barnes insert exceeded maximum depth");
}

CoTask
BarnesWorkload::forceOnBody(Proc &p, std::uint32_t b,
                            std::vector<int> &stack)
{
    const Vec bp = pos_[b];
    stack.assign(1, 0);
    double ax = 0, ay = 0, az = 0;
    while (!stack.empty()) {
        const int idx = stack.back();
        stack.pop_back();
        // A SPLASH cell record spans several lines (children, center
        // of mass, quadrupole moments); visiting one touches both
        // lines of our 128-byte record.
        co_await p.read(cells_.at(idx));
        co_await p.read(VAddr{cells_.at(idx).raw + 64});
        const Cell &c = tree_[idx];
        const double dx = c.com.x - bp.x;
        const double dy = c.com.y - bp.y;
        const double dz = c.com.z - bp.z;
        const double d2 = dx * dx + dy * dy + dz * dz + 1e-4; // softened
        const double d = std::sqrt(d2);
        if (c.leaf || (2 * c.half) / d < params_.theta) {
            if (!(c.leaf && c.bodyIdx == static_cast<int>(b))) {
                if (c.leaf) {
                    // Body-body interaction reads the partner record.
                    co_await p.read(
                        bodies_.at(static_cast<std::uint32_t>(
                            c.bodyIdx)));
                }
                const double f = c.mass / (d2 * d);
                ax += f * dx;
                ay += f * dy;
                az += f * dz;
                p.compute(12);
            }
        } else {
            for (int ch : c.child) {
                if (ch >= 0)
                    stack.push_back(ch);
            }
            p.compute(4);
        }
    }
    // Store the acceleration into the body record.
    co_await p.read(bodies_.at(b));
    co_await p.write(bodies_.at(b));
    const double dt = 1e-6;
    auto kick = [](double &v, double a, double step) {
        v += a * step;
        if (v > 0.02)
            v = 0.02;
        if (v < -0.02)
            v = -0.02;
    };
    kick(vel_[b].x, ax, dt);
    kick(vel_[b].y, ay, dt);
    kick(vel_[b].z, az, dt);
}

CoTask
BarnesWorkload::body(Proc &p, std::uint32_t tid, std::uint32_t nt)
{
    const std::uint32_t n = params_.bodies;
    const std::uint32_t per = n / nt;
    const std::uint32_t b0 = tid * per;
    const std::uint32_t b1 = (tid + 1 == nt) ? n : b0 + per;

    // Init: processor 0 writes all body records (master init, as in
    // SPLASH Barnes).
    if (tid == 0) {
        resetTree();
        for (std::uint32_t b = 0; b < n; ++b) {
            co_await p.write(bodies_.at(b));
            p.compute(2);
        }
    }

    co_await p.barrier(0);
    if (tid == 0)
        co_await p.beginParallel();
    co_await p.barrier(0);

    // This processor's tree-walk stack, reused by every body it visits.
    std::vector<int> stack;
    for (std::uint32_t it = 0; it < params_.iters; ++it) {
        // 1. Parallel tree build with per-cell locks.
        for (std::uint32_t b = b0; b < b1; ++b)
            co_await insertBody(p, b);
        co_await p.barrier(0);

        // 2. Center-of-mass: host-side values are final once the tree
        // is complete; processors sweep disjoint cell ranges.
        if (tid == 0)
            computeMass(0);
        const std::uint32_t cells =
            static_cast<std::uint32_t>(tree_.size());
        const std::uint32_t cper = cells / nt + 1;
        for (std::uint32_t c = tid * cper;
             c < cells && c < (tid + 1) * cper; ++c) {
            co_await p.read(cells_.at(c));
            co_await p.write(cells_.at(c));
            p.compute(6);
        }
        co_await p.barrier(0);

        // 3. Force computation (irregular read sharing).
        for (std::uint32_t b = b0; b < b1; ++b)
            co_await forceOnBody(p, b, stack);
        co_await p.barrier(0);

        // 4. Position update (owned bodies).
        for (std::uint32_t b = b0; b < b1; ++b) {
            co_await p.read(bodies_.at(b));
            co_await p.write(bodies_.at(b));
            pos_[b].x += vel_[b].x;
            pos_[b].y += vel_[b].y;
            pos_[b].z += vel_[b].z;
            // Reflect at the walls to stay in the unit cube.
            auto clamp = [](double &x, double &v) {
                if (x < 0) {
                    x = -x;
                    v = -v;
                }
                if (x > 1) {
                    x = 2 - x;
                    v = -v;
                }
            };
            clamp(pos_[b].x, vel_[b].x);
            clamp(pos_[b].y, vel_[b].y);
            clamp(pos_[b].z, vel_[b].z);
            p.compute(8);
        }
        co_await p.barrier(0);
        if (tid == 0 && it + 1 < params_.iters)
            resetTree();
        co_await p.barrier(0);
    }

    if (tid == 0)
        co_await p.endParallel();
}

} // namespace prism
