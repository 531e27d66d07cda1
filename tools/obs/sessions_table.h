#ifndef TASFAR_TOOLS_OBS_SESSIONS_TABLE_H_
#define TASFAR_TOOLS_OBS_SESSIONS_TABLE_H_

#include <string>
#include <vector>

namespace tasfar {

/// Reads the `/sessions` body of tasfar_served
/// (SessionManager::SessionsText): a header line of column names, then one
/// line per session whose last column, the degraded reason, is free-form
/// text. Sets `rows` to each session's cells of the columns `names`, in
/// that order, each found by its name in the header, so a column added to
/// the table cannot shift the others. Returns false when the header lacks
/// one of `names` or a row has fewer cells than the header.
bool PickSessionColumns(const std::string& body,
                        const std::vector<std::string>& names,
                        std::vector<std::vector<std::string>>* rows);

}  // namespace tasfar

#endif  // TASFAR_TOOLS_OBS_SESSIONS_TABLE_H_
