/**
 * @file
 * Barnes: hierarchical Barnes-Hut N-body (SPLASH style).
 *
 * A real octree is built over host-side body positions each
 * iteration; tree build uses per-cell locks (write sharing), the
 * force phase traverses the tree with the opening criterion
 * (irregular, wide read sharing of cells), and the update phase
 * writes the owned bodies.
 */

#ifndef PRISM_WORKLOAD_BARNES_HH
#define PRISM_WORKLOAD_BARNES_HH

#include <vector>

#include "workload/workload.hh"

namespace prism {

/** Barnes workload (paper: 8K particles, 4 iterations). */
class BarnesWorkload : public Workload
{
  public:
    struct Params {
        std::uint32_t bodies = 8192;
        std::uint32_t iters = 4;
        double theta = 1.0; //!< opening criterion
        std::uint64_t seed = 7;
    };

    BarnesWorkload() : BarnesWorkload(Params{}) {}
    explicit BarnesWorkload(const Params &p);

    const char *name() const override { return "Barnes"; }
    std::string sizeDesc() const override;
    void setup(Machine &m) override;
    CoTask body(Proc &p, std::uint32_t tid, std::uint32_t nt) override;

    /**
     * The tree build is an optimistic lock-free descent: a processor
     * reads tree_[idx] and newCell() appends to the shared tree_
     * vector while other processors hold locks on *different* cells.
     * Cell indices feed simulated addresses, so host-thread timing
     * would leak into simulated behaviour; the runner must keep Barnes
     * on the sequential scheduler.
     */
    bool shardSafe() const override { return false; }

  private:
    struct Vec {
        double x = 0, y = 0, z = 0;
    };

    struct Cell {
        int child[8];
        Vec center;
        double half = 0;
        bool leaf = false;
        int bodyIdx = -1;
        Vec com;
        double mass = 0;
    };

    int newCell(const Vec &center, double half, bool leaf, int body);
    int octantOf(const Cell &c, const Vec &pos) const;
    Vec childCenter(const Cell &c, int oct) const;
    void resetTree();
    void computeMass(int idx);

    CoTask insertBody(Proc &p, std::uint32_t b);
    /**
     * Walk the tree for body @p b's force on @p stack, the calling
     * processor's own, so a walk allocates nothing once it has grown.
     */
    CoTask forceOnBody(Proc &p, std::uint32_t b, std::vector<int> &stack);

    Params params_;
    SimArray bodies_; //!< one record (pos/vel/acc) per body
    SimArray cells_;  //!< one record per tree cell
    std::vector<Vec> pos_;
    std::vector<Vec> vel_;
    std::vector<Cell> tree_;
    std::uint32_t maxCells_ = 0;
};

} // namespace prism

#endif // PRISM_WORKLOAD_BARNES_HH
