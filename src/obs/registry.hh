/**
 * @file
 * StatRegistry: the hierarchical home of every registered statistic.
 *
 * Components self-register their counters under dotted names
 * ("system.pcm.bank3.writes") via registerStats() methods; a dump is
 * then a walk over the registry, in registration order:
 *
 *   obs::StatRegistry reg;
 *   memory.registerStats(reg, "system.pcm");
 *   reg.dumpText(std::cout);   // classic gem5 name value # desc
 *   reg.dumpJson(std::cout);   // nested object mirroring the dots
 *
 * The registry owns its stats; functor-backed stats keep references
 * into the registering component, which must therefore outlive every
 * dump. Names are unique — a duplicate registration is a fatal error
 * (it would silently shadow a counter in the dump otherwise).
 */

#ifndef DEUCE_OBS_REGISTRY_HH
#define DEUCE_OBS_REGISTRY_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/stat.hh"

namespace deuce
{

class ThreadPool;

namespace obs
{

/** Hierarchical, insertion-ordered collection of named stats. */
class StatRegistry
{
  public:
    StatRegistry() = default;

    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Register an owned-value scalar. */
    Scalar &addScalar(const std::string &name, const std::string &desc,
                      ValueKind kind = ValueKind::Float);

    /** Register a functor-backed float scalar. */
    Scalar &addValue(const std::string &name, const std::string &desc,
                     std::function<double()> source);

    /** Register a functor-backed integer scalar. */
    Scalar &addIntValue(const std::string &name,
                        const std::string &desc,
                        std::function<uint64_t()> source);

    /** Register a derived-value formula. */
    Formula &addFormula(const std::string &name,
                        const std::string &desc,
                        std::function<double()> fn);

    /** Register a view over a component-owned histogram. */
    Histogram &addHistogram(const std::string &name,
                            const std::string &desc,
                            const Log2Histogram &data);

    /** Register any stat; fatal on a duplicate name. */
    Stat &add(std::unique_ptr<Stat> stat);

    /** Look up a stat by full dotted name (null when absent). */
    const Stat *find(const std::string &name) const;

    /** Every stat in registration order (including invisible ones). */
    std::vector<const Stat *> stats() const;

    size_t size() const { return stats_.size(); }

    /**
     * Classic gem5 text dump: one `name value # description` line
     * per visible stat, in registration order. Byte-compatible with
     * the hand-written formatters this registry replaced.
     */
    void dumpText(std::ostream &os) const;

    /**
     * Nested JSON object mirroring the dotted hierarchy:
     *   {"system":{"pcm":{"writes":50,...}}}
     * Keys appear in registration order; invisible stats are skipped.
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::vector<std::unique_ptr<Stat>> stats_;
    std::unordered_map<std::string, size_t> byName_;
};

/**
 * Register a ThreadPool's execution counters (tasks run, steals,
 * worker count). Free function because common/ sits below obs/ in
 * the library stack: the pool exposes plain counters and obs knows
 * how to present them.
 */
void registerStats(StatRegistry &reg, const ThreadPool &pool,
                   const std::string &prefix);

} // namespace obs
} // namespace deuce

#endif // DEUCE_OBS_REGISTRY_HH
