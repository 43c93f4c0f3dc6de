/**
 * @file
 * StatRegistry implementation.
 */

#include "obs/registry.hh"

#include <ostream>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/output.hh"

namespace deuce
{
namespace obs
{

namespace
{

/** One node of the dotted-name tree built for the JSON dump. */
struct TreeNode
{
    const Stat *leaf = nullptr;
    // Ordered children: first-registration order, like gem5's dump.
    std::vector<std::pair<std::string, TreeNode>> children;

    TreeNode &
    child(const std::string &key)
    {
        for (auto &[name, node] : children) {
            if (name == key) {
                return node;
            }
        }
        children.emplace_back(key, TreeNode{});
        return children.back().second;
    }
};

void
emitTree(std::ostream &os, const TreeNode &node)
{
    if (node.leaf != nullptr) {
        deuce_assert(node.children.empty());
        os << node.leaf->jsonValue();
        return;
    }
    os << '{';
    bool first = true;
    for (const auto &[key, sub] : node.children) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << '"' << jsonEscape(key) << "\":";
        emitTree(os, sub);
    }
    os << '}';
}

} // namespace

Scalar &
StatRegistry::addScalar(const std::string &name,
                        const std::string &desc, ValueKind kind)
{
    return static_cast<Scalar &>(
        add(std::make_unique<Scalar>(name, desc, kind)));
}

Scalar &
StatRegistry::addValue(const std::string &name, const std::string &desc,
                       std::function<double()> source)
{
    return static_cast<Scalar &>(add(std::make_unique<Scalar>(
        name, desc, std::move(source), ValueKind::Float)));
}

Scalar &
StatRegistry::addIntValue(const std::string &name,
                          const std::string &desc,
                          std::function<uint64_t()> source)
{
    auto as_double = [src = std::move(source)]() {
        return static_cast<double>(src());
    };
    return static_cast<Scalar &>(add(std::make_unique<Scalar>(
        name, desc, std::move(as_double), ValueKind::Int)));
}

Formula &
StatRegistry::addFormula(const std::string &name,
                         const std::string &desc,
                         std::function<double()> fn)
{
    return static_cast<Formula &>(
        add(std::make_unique<Formula>(name, desc, std::move(fn))));
}

Histogram &
StatRegistry::addHistogram(const std::string &name,
                           const std::string &desc,
                           const Log2Histogram &data)
{
    return static_cast<Histogram &>(
        add(std::make_unique<Histogram>(name, desc, data)));
}

Stat &
StatRegistry::add(std::unique_ptr<Stat> stat)
{
    deuce_assert(stat != nullptr);
    auto [it, inserted] =
        byName_.emplace(stat->name(), stats_.size());
    if (!inserted) {
        deuce_fatal("duplicate stat registration '" + stat->name() +
                    "'");
    }
    stats_.push_back(std::move(stat));
    return *stats_.back();
}

const Stat *
StatRegistry::find(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : stats_[it->second].get();
}

std::vector<const Stat *>
StatRegistry::stats() const
{
    std::vector<const Stat *> out;
    out.reserve(stats_.size());
    for (const auto &s : stats_) {
        out.push_back(s.get());
    }
    return out;
}

void
StatRegistry::dumpText(std::ostream &os) const
{
    for (const auto &stat : stats_) {
        if (stat->visible()) {
            stat->dumpText(os);
        }
    }
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    TreeNode root;
    for (const auto &stat : stats_) {
        if (!stat->visible()) {
            continue;
        }
        TreeNode *node = &root;
        const std::string &name = stat->name();
        size_t start = 0;
        while (true) {
            size_t dot = name.find('.', start);
            std::string seg = name.substr(
                start, dot == std::string::npos ? std::string::npos
                                                : dot - start);
            node = &node->child(seg);
            if (dot == std::string::npos) {
                break;
            }
            // Descending through a node already claimed as a leaf:
            // some registered prefix of this name is itself a stat.
            if (node->leaf != nullptr) {
                deuce_fatal("stat name '" + name +
                            "' descends through leaf stat '" +
                            node->leaf->name() + "'");
            }
            start = dot + 1;
        }
        if (node->leaf != nullptr || !node->children.empty()) {
            deuce_fatal("stat name '" + name +
                        "' is both a leaf and a group");
        }
        node->leaf = stat.get();
    }
    emitTree(os, root);
    os << '\n';
}

void
registerStats(StatRegistry &reg, const ThreadPool &pool,
              const std::string &prefix)
{
    reg.addIntValue(prefix + ".workers", "worker threads in the pool",
                    [&pool] {
                        return static_cast<uint64_t>(
                            pool.threadCount());
                    });
    reg.addIntValue(prefix + ".tasksExecuted",
                    "tasks run to completion",
                    [&pool] { return pool.tasksExecuted(); });
    reg.addIntValue(prefix + ".steals",
                    "tasks stolen from another worker's queue",
                    [&pool] { return pool.steals(); });
}

} // namespace obs
} // namespace deuce
