/**
 * @file
 * Output helpers every obs exporter and the sweep report share: the
 * one JSON string escaper and the one temp-file-and-rename writer.
 */

#ifndef DEUCE_OBS_OUTPUT_HH
#define DEUCE_OBS_OUTPUT_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace deuce
{
namespace obs
{

/**
 * @p s escaped for use between JSON quotes: '"', '\\', '\n' and '\t'
 * get their short escapes, other control characters \u00XX.
 */
std::string jsonEscape(std::string_view s);

/**
 * Write @p path atomically: @p body fills "<path>.tmp", which is
 * renamed over @p path only when every write (and the final flush)
 * succeeded, so a reader never sees a torn or half-written file.
 * @return false when the file could not be written or renamed
 */
bool writeFileAtomically(const std::string &path,
                         const std::function<void(std::ostream &)> &body);

} // namespace obs
} // namespace deuce

#endif // DEUCE_OBS_OUTPUT_HH
