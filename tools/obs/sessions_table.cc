#include "sessions_table.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace tasfar {

bool PickSessionColumns(const std::string& body,
                        const std::vector<std::string>& names,
                        std::vector<std::vector<std::string>>* rows) {
  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line)) return false;
  std::vector<std::string> header;
  std::istringstream header_fields(line);
  for (std::string name; header_fields >> name;) header.push_back(name);
  std::vector<size_t> picks;
  for (const std::string& name : names) {
    const auto it = std::find(header.begin(), header.end(), name);
    if (it == header.end()) return false;
    picks.push_back(static_cast<size_t>(it - header.begin()));
  }
  rows->clear();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Every column but the last is one whitespace-free field; the last
    // takes the rest of the line.
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    while (cells.size() + 1 < header.size() && fields >> cell) {
      cells.push_back(cell);
    }
    if (cells.size() + 1 < header.size()) return false;
    std::getline(fields, cell);
    if (!cell.empty() && cell.front() == ' ') cell.erase(0, 1);
    cells.push_back(cell);
    std::vector<std::string> picked;
    picked.reserve(picks.size());
    for (const size_t p : picks) picked.push_back(cells[p]);
    rows->push_back(std::move(picked));
  }
  return true;
}

}  // namespace tasfar
